"""Test media that the library itself never builds.

``color_bars`` is the saturated test pattern the chroma-subsampling test
compresses; ``midi_object`` wraps a score's MIDI events as a media
object, the input the synthesizer's event re-pairing path is tested on.
"""

from __future__ import annotations

import numpy as np

from repro.core.media_object import StreamMediaObject
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational
from repro.media.music import Score


def color_bars(width: int = 160, height: int = 120) -> np.ndarray:
    """Eight vertical color bars (a test pattern)."""
    colors = np.array([
        [255, 255, 255], [255, 255, 0], [0, 255, 255], [0, 255, 0],
        [255, 0, 255], [255, 0, 0], [0, 0, 255], [0, 0, 0],
    ], dtype=np.uint8)
    frame = np.zeros((height, width, 3), dtype=np.uint8)
    bar_width = max(1, width // len(colors))
    for i, color in enumerate(colors):
        begin = i * bar_width
        end = width if i == len(colors) - 1 else (i + 1) * bar_width
        frame[:, begin:end] = color
    return frame


def midi_object(score: Score, name: str) -> StreamMediaObject:
    """Wrap a score's events as a MIDI media object (event-based stream)."""
    media_type = media_type_registry.get("midi-music")
    stream = score.to_event_stream()
    descriptor = media_type.make_media_descriptor(
        division=960,
        tempo_bpm=score.tempo_bpm,
        duration=Rational.from_float(score.duration_seconds()),
    )
    obj = StreamMediaObject(media_type, descriptor, stream, name=name)
    obj.score = score
    return obj
