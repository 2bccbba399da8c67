"""The §1.2 queries over the catalog.

"It is possible to issue queries which select a specific sound track, or
select a specific duration, or perhaps retrieve frames at a specific
visual fidelity" — three functions below, plus general attribute
selection. Duration selection returns a *derived* object (a one-decision
edit list), never copied data, per §4.2.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.scalable import ScalableVideoCodec
from repro.core.composition import MultimediaObject
from repro.core.derivation import derivation_registry
from repro.core.media_object import DerivedMediaObject, MediaObject
from repro.core.media_types import MediaKind
from repro.errors import QueryError
from repro.query.database import MediaDatabase


def select_track(db: MediaDatabase, movie: str | MultimediaObject,
                 language: str) -> MediaObject:
    """Select a movie's sound track by language.

    The movie is a multimedia object whose audio components are cataloged
    with a ``language`` domain attribute.
    """
    multimedia = (
        movie if isinstance(movie, MultimediaObject)
        else db.get_multimedia(movie)
    )
    component_names = {
        obj.name for _, obj, _ in multimedia.flatten()
    }
    matches = [
        obj for obj in db.objects(kind=MediaKind.AUDIO, language=language)
        if obj.name in component_names
    ]
    if not matches:
        available = sorted({
            db.attributes_of(obj.name).get("language")
            for _, obj, _ in multimedia.flatten()
            if obj.kind is MediaKind.AUDIO and obj.name in db
        })
        raise QueryError(
            f"{multimedia.name!r} has no {language!r} sound track; "
            f"languages: {available}"
        )
    if len(matches) > 1:
        raise QueryError(
            f"{multimedia.name!r} has {len(matches)} {language!r} tracks"
        )
    return matches[0]


def select_duration(obj: MediaObject, start_seconds, end_seconds,
                    name: str | None = None) -> DerivedMediaObject:
    """Select a time range of a video as a derived object (no copying).

    The result is a one-decision edit list — "to delete a video
    subsequence one could copy and reassemble the frame data, but it
    would be much more efficient to simply create a derivation" (§4.2).
    """
    system = obj.media_type.time_system
    if system is None:
        raise QueryError(f"{obj.name} is not time-based")
    in_tick = system.floor(start_seconds)
    out_tick = system.ceil(end_seconds)
    if out_tick <= in_tick:
        raise QueryError(
            f"empty selection [{start_seconds}, {end_seconds}) on {obj.name}"
        )
    derivation = derivation_registry.get("video-edit")
    return derivation(
        [obj], {"edit_list": [(0, in_tick, out_tick)]},
        name=name or f"{obj.name}[{start_seconds}:{end_seconds}]",
    )


def frames_at_fidelity(obj: MediaObject, level: int,
                       codec: ScalableVideoCodec | None = None,
                       frame_indices: list[int] | None = None,
                       ) -> tuple[list[np.ndarray], int, int]:
    """Retrieve frames at a reduced visual fidelity.

    The object's elements must hold scalable-codec payloads (bytes).
    Returns ``(frames, bytes_read, bytes_total)`` — the byte counts show
    the bandwidth saved by "ignoring parts of the storage unit" (§2.2).
    """
    codec = codec or ScalableVideoCodec()
    stream = obj.stream()
    tuples = stream.tuples
    indices = frame_indices if frame_indices is not None else range(len(tuples))
    frames = []
    bytes_read = 0
    bytes_total = 0
    for index in indices:
        payload = tuples[index].element.payload
        if not isinstance(payload, (bytes, bytearray)):
            raise QueryError(
                f"{obj.name} element {index} is not scalable-encoded bytes"
            )
        frames.append(codec.decode_at_level(bytes(payload), level))
        bytes_read += codec.bytes_at_level(bytes(payload), level)
        bytes_total += len(payload)
    return frames, bytes_read, bytes_total
