"""Generic timing derivations.

"Derivations involving changes in timing are generic in the sense that
they apply to all time-based media. For instance, temporally translating
a sequence (i.e., uniformly incrementing element start times) can be
performed on video sequences, audio sequences or any other time-based
value. Another example is scaling (i.e., uniformly scaling element
durations and start times)." (§4.2)

Both derivations are registered with ``any_kind=True``: the result type
equals the input type, whatever it is.
"""

from __future__ import annotations

from repro.core import stream_ops
from repro.core.derivation import (
    Derivation,
    DerivationCategory,
    derivation_registry,
)
from repro.core.media_object import StreamMediaObject
from repro.core.media_types import MediaKind
from repro.core.rational import as_rational


def _expand_translate(inputs, params):
    source = inputs[0]
    translated = stream_ops.translate(source.stream(), params["offset_ticks"])
    _, descriptor = _describe_translate(inputs, params)
    return StreamMediaObject(
        source.media_type, descriptor, translated,
        name=f"{source.name}-translated",
    )


def _describe_translate(inputs, params):
    """The source's type and descriptor, its ``offset_ticks`` advanced by
    the translation: ``duration`` stays the source's, and a consumer that
    renders from tick 0 (a synthesis) adds the lead-in from descriptors."""
    source = inputs[0]
    offset = source.descriptor.get("offset_ticks", 0) + params["offset_ticks"]
    return source.media_type, source.descriptor.with_updates(offset_ticks=offset)


TEMPORAL_TRANSLATE = derivation_registry.register(Derivation(
    name="temporal-translate",
    category=DerivationCategory.CHANGE_OF_TIMING,
    input_kinds=(MediaKind.VIDEO,),  # nominal; any_kind bypasses the check
    result_kind=MediaKind.VIDEO,
    expand=_expand_translate,
    describe=_describe_translate,
    any_kind=True,
    required_params=("offset_ticks",),
    doc="§4.2: uniformly increment element start times (any time-based type).",
))


def _expand_scale(inputs, params):
    source = inputs[0]
    scaled = stream_ops.scale(source.stream(), as_rational(params["factor"]))
    _, descriptor = _describe_scale(inputs, params)
    return StreamMediaObject(
        source.media_type, descriptor, scaled, name=f"{source.name}-scaled",
    )


def _describe_scale(inputs, params):
    """The source's type and descriptor, its ``duration`` and
    ``offset_ticks`` (when present) scaled by the factor."""
    source = inputs[0]
    factor = as_rational(params["factor"])
    descriptor = source.descriptor
    scaled = {key: as_rational(descriptor[key]) * factor
              for key in ("duration", "offset_ticks")
              if descriptor.get(key) is not None}
    return source.media_type, descriptor.with_updates(**scaled)


TEMPORAL_SCALE = derivation_registry.register(Derivation(
    name="temporal-scale",
    category=DerivationCategory.CHANGE_OF_TIMING,
    input_kinds=(MediaKind.VIDEO,),  # nominal; any_kind bypasses the check
    result_kind=MediaKind.VIDEO,
    expand=_expand_scale,
    describe=_describe_scale,
    any_kind=True,
    required_params=("factor",),
    doc="§4.2: uniformly scale element durations and start times.",
))


def _expand_reverse(inputs, params):
    source = inputs[0]
    stream = source.stream()
    tuples = stream.tuples
    reversed_tuples = []
    cursor = 0
    for original in reversed(tuples):
        from repro.core.streams import TimedTuple

        reversed_tuples.append(
            TimedTuple(original.element, cursor, original.duration)
        )
        cursor += original.duration
    from repro.core.streams import TimedStream

    reversed_stream = TimedStream(
        source.media_type, reversed_tuples,
        time_system=stream.time_system, validate_constraints=False,
    )
    return StreamMediaObject(
        source.media_type, source.descriptor, reversed_stream,
        name=f"{source.name}-reversed",
    )


def _describe_reverse(inputs, params):
    source = inputs[0]
    return source.media_type, source.descriptor


VIDEO_REVERSE = derivation_registry.register(Derivation(
    name="video-reverse",
    category=DerivationCategory.CHANGE_OF_TIMING,
    input_kinds=(MediaKind.VIDEO,),
    result_kind=MediaKind.VIDEO,
    expand=_expand_reverse,
    describe=_describe_reverse,
    doc=(
        "§2.1: independently compressed (JPEG-style) frames make it "
        "'easier to rearrange the order of the frames and to playback "
        "in reverse'. Inter-coded sources must be expanded first."
    ),
))
