"""Temporal composition, rendered for audio: the mixdown.

"Narrating a video sequence by combining it with an audio sequence is an
example of temporal composition" (§4.3). The mixdown makes the audio side
executable: every audio component of a multimedia object is placed at its
temporal offset and summed into one signal — music under narration, both
aligned to the composition's timeline.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.pcm import dequantize_samples
from repro.core.composition import MultimediaObject
from repro.core.media_types import MediaKind
from repro.errors import CompositionError


def _component_signal(obj) -> tuple[np.ndarray, int]:
    """(float mono signal, sample_rate) of an audio media object."""
    descriptor = obj.descriptor
    sample_rate = descriptor.get("sample_rate")
    if sample_rate is None:
        raise CompositionError(f"{obj.name} declares no sample rate")
    blocks = [t.element.payload for t in obj.stream()]
    if not blocks:
        return np.zeros(0), sample_rate
    samples = np.concatenate(blocks)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    signal = dequantize_samples(samples, descriptor.get("sample_size", 16))
    return signal, sample_rate


def mixdown(
    multimedia: MultimediaObject,
    sample_rate: int = 44100,
    gain: float | None = None,
) -> np.ndarray:
    """Mix all audio components onto one timeline; returns float mono.

    Components are resampled to ``sample_rate`` by nearest-neighbour
    index mapping (adequate for the integer-ratio rates used here) and
    summed at their temporal offsets. ``gain`` scales the mix; when
    omitted, the mix is normalized only if it clips.
    """
    duration = multimedia.duration()
    total = np.zeros(int(duration * sample_rate) + 1)
    found_audio = False
    for label, obj, interval in multimedia.flatten():
        if obj.kind is not MediaKind.AUDIO:
            continue
        found_audio = True
        signal, source_rate = _component_signal(obj)
        if source_rate != sample_rate and len(signal):
            positions = np.arange(
                0, len(signal), source_rate / sample_rate
            )
            indexes = np.minimum(
                positions.astype(np.int64), len(signal) - 1
            )
            signal = signal[indexes]
        begin = int(interval.start * sample_rate)
        end = min(begin + len(signal), len(total))
        total[begin:end] += signal[:end - begin]
    if not found_audio:
        raise CompositionError(
            f"{multimedia.name!r} has no audio components to mix"
        )
    if gain is not None:
        total = total * gain
    peak = np.abs(total).max()
    if gain is None and peak > 1.0:
        total /= peak
    return total
