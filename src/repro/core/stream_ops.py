"""Generic timing operations on timed streams.

These are the media-independent primitives behind "derivations changing
timing" (§4.2): temporal translation ("uniformly incrementing element
start times"), scaling ("uniformly scaling element durations and start
times"), selection, concatenation and merging. They apply "to video
sequences, audio sequences or any other time-based value".

All operations are non-destructive: they return new streams sharing the
(immutable) elements of their inputs, never copying payloads.
"""

from __future__ import annotations

from typing import Callable

from repro.core.elements import MediaElement
from repro.core.rational import Rational, as_rational
from repro.core.streams import TimedStream, TimedTuple
from repro.errors import StreamError


def translate(stream: TimedStream, offset_ticks: int) -> TimedStream:
    """Temporal translation: add ``offset_ticks`` to every start time."""
    tuples = [
        TimedTuple(t.element, t.start + offset_ticks, t.duration)
        for t in stream
    ]
    return TimedStream(
        stream.media_type, tuples,
        time_system=stream.time_system, validate_constraints=False,
    )


def scale(stream: TimedStream, factor) -> TimedStream:
    """Temporal scaling: multiply starts and durations by ``factor``.

    ``factor`` must be a positive rational and must keep every start and
    duration integral (scale by 2, or by 1/2 on even timings); otherwise
    the stream cannot be expressed in its time system and a
    :class:`StreamError` is raised. To play a stream slower or faster
    without this restriction, rescale its *time system* instead (the
    mapping ``D_f``), which is what players do.
    """
    factor = as_rational(factor)
    if factor <= 0:
        raise StreamError(f"scale factor must be positive, got {factor}")
    tuples = []
    for t in stream:
        start = Rational(t.start) * factor
        duration = Rational(t.duration) * factor
        if start.denominator != 1 or duration.denominator != 1:
            raise StreamError(
                f"scaling by {factor} does not preserve integral ticks "
                f"(start {t.start} -> {start}); rescale the time system instead"
            )
        tuples.append(TimedTuple(t.element, int(start), int(duration)))
    return TimedStream(
        stream.media_type, tuples,
        time_system=stream.time_system, validate_constraints=False,
    )


def select_range(
    stream: TimedStream,
    start_tick: int,
    end_tick: int,
    rebase: bool = True,
) -> TimedStream:
    """Select the tuples lying entirely within ``[start_tick, end_tick)``.

    This is the "cut" primitive of edit lists: selection by time range.
    With ``rebase`` the result is translated so it starts at tick 0.
    """
    if end_tick < start_tick:
        raise StreamError(f"empty range: [{start_tick}, {end_tick})")
    kept = [
        t for t in stream
        if t.start >= start_tick and (t.end <= end_tick if t.duration else t.start < end_tick)
    ]
    if rebase:
        kept = [TimedTuple(t.element, t.start - start_tick, t.duration) for t in kept]
    return TimedStream(
        stream.media_type, kept,
        time_system=stream.time_system, validate_constraints=False,
    )


def concat(*streams: TimedStream) -> TimedStream:
    """Concatenate streams end-to-start in time.

    All inputs must share the media type and the time system ("an audio
    sequence cannot be concatenated to a video sequence", §4.2). Each
    stream is rebased to begin where the previous one ends.
    """
    if not streams:
        raise StreamError("concat requires at least one stream")
    first = streams[0]
    for s in streams[1:]:
        if s.media_type.name != first.media_type.name:
            raise StreamError(
                f"cannot concatenate {s.media_type.name} to "
                f"{first.media_type.name}"
            )
        if s.time_system != first.time_system:
            raise StreamError("cannot concatenate streams in different time systems")
    tuples: list[TimedTuple] = []
    cursor = 0
    for s in streams:
        offset = cursor - s.start
        for t in s:
            tuples.append(TimedTuple(t.element, t.start + offset, t.duration))
        cursor += s.span_ticks
    return TimedStream(
        first.media_type, tuples,
        time_system=first.time_system, validate_constraints=False,
    )


def merge(*streams: TimedStream) -> TimedStream:
    """Merge streams on a common timeline, interleaving by start time.

    Unlike :func:`concat`, start times are preserved; the result may be
    non-continuous (overlaps where inputs coincide). This is how chords
    are assembled from per-voice note streams.
    """
    if not streams:
        raise StreamError("merge requires at least one stream")
    first = streams[0]
    for s in streams[1:]:
        if s.media_type.name != first.media_type.name:
            raise StreamError(
                f"cannot merge {s.media_type.name} with {first.media_type.name}"
            )
        if s.time_system != first.time_system:
            raise StreamError("cannot merge streams in different time systems")
    tuples = sorted(
        (t for s in streams for t in s),
        key=lambda t: (t.start, t.end),
    )
    return TimedStream(
        first.media_type, tuples,
        time_system=first.time_system, validate_constraints=False,
    )


def map_elements(
    stream: TimedStream,
    transform: Callable[[MediaElement], MediaElement],
) -> TimedStream:
    """Apply ``transform`` to every element, preserving all timing.

    The primitive behind "derivations changing the content" whose timing
    is untouched (filters, normalization).
    """
    tuples = [
        TimedTuple(transform(t.element), t.start, t.duration) for t in stream
    ]
    return TimedStream(
        stream.media_type, tuples,
        time_system=stream.time_system, validate_constraints=False,
    )


def gaps(stream: TimedStream) -> list[tuple[int, int]]:
    """Uncovered ``[from_tick, to_tick)`` ranges between consecutive elements."""
    result = []
    covered_until: int | None = None
    for t in stream:
        if covered_until is not None and t.start > covered_until:
            result.append((covered_until, t.start))
        covered_until = t.end if covered_until is None else max(covered_until, t.end)
    return result


def overlaps(stream: TimedStream) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` of tuples that overlap in time (``i < j``).

    Two tuples overlap when the later one starts strictly before the
    earlier one ends. Start times are non-decreasing, so for each ``i``
    the scan stops at the first ``j`` starting at/after ``i``'s end.
    """
    result = []
    tuples = stream.tuples
    for i, a in enumerate(tuples):
        for j in range(i + 1, len(tuples)):
            b = tuples[j]
            if b.start >= a.end:
                break
            result.append((i, j))
    return result
