"""Builders turning raw content into media objects.

The bridge between the synthetic capture substrate (signals, frames,
scores, scenes) and the data model: each builder packages content as a
:class:`~repro.core.media_object.StreamMediaObject` (or still object)
with a validated media descriptor — the "capture" step of the paper's
production pipeline, without the camera.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.pcm import quantize_samples
from repro.core.elements import MediaElement
from repro.core.media_object import StillMediaObject, StreamMediaObject
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational
from repro.core.streams import TimedStream, TimedTuple
from repro.core.time_system import DiscreteTimeSystem
from repro.errors import MediaModelError
from repro.media.animation import AnimationScene
from repro.media.music import Score

#: Default block size for audio elements: 1/25 s of CD audio, the
#: paper's "1764 sample pairs" interleaving unit.
DEFAULT_BLOCK_SAMPLES = 1764


def video_object(
    frames: list[np.ndarray],
    name: str,
    media_type_name: str = "pal-video",
    quality_factor: str = "production quality",
    encoding: str = "RGB raw",
) -> StreamMediaObject:
    """Wrap raw RGB frames as a video media object.

    Elements carry the frame arrays; sizes are raw byte sizes. Encoding
    to a compressed representation is a job for the recorder
    (:mod:`repro.engine.recorder`), which re-sizes elements as it writes
    them into a BLOB.
    """
    if not frames:
        raise MediaModelError("video objects need at least one frame")
    media_type = media_type_registry.get(media_type_name)
    height, width = frames[0].shape[:2]
    for i, frame in enumerate(frames):
        if frame.shape != frames[0].shape:
            raise MediaModelError(
                f"frame {i} shape {frame.shape} differs from {frames[0].shape}"
            )
    system = media_type.time_system
    descriptor = media_type.make_media_descriptor(
        frame_rate=system.frequency,
        frame_width=width,
        frame_height=height,
        frame_depth=24,
        color_model="RGB",
        encoding=encoding,
        quality_factor=quality_factor,
        duration=system.to_continuous(len(frames)),
    )
    elements = [
        MediaElement(payload=frame, size=frame.nbytes) for frame in frames
    ]
    stream = TimedStream.from_elements(media_type, elements)
    return StreamMediaObject(media_type, descriptor, stream, name=name)


def audio_object(
    signal: np.ndarray,
    name: str,
    sample_rate: int = 44100,
    sample_size: int = 16,
    block_samples: int = DEFAULT_BLOCK_SAMPLES,
    quality_factor: str = "CD quality",
) -> StreamMediaObject:
    """Wrap a float signal as a block-audio media object.

    The signal is quantized to integer samples and split into blocks of
    ``block_samples``; each block is one stream element whose duration in
    ticks equals its sample count, so the stream is continuous and (except
    for a short final block) uniform.
    """
    samples = quantize_samples(np.asarray(signal), sample_size)
    if samples.ndim == 1:
        samples = samples[:, np.newaxis]
    channels = samples.shape[1]
    media_type = media_type_registry.get("block-audio")
    system = DiscreteTimeSystem(Rational(sample_rate), f"AUDIO-{sample_rate}")
    descriptor = media_type.make_media_descriptor(
        sample_rate=sample_rate,
        sample_size=sample_size,
        channels=channels,
        encoding="PCM",
        block_samples=block_samples,
        quality_factor=quality_factor,
        duration=system.to_continuous(len(samples)),
    )
    tuples = []
    bytes_per_sample = sample_size // 8 * channels
    for begin in range(0, len(samples), block_samples):
        block = samples[begin:begin + block_samples]
        element = MediaElement(payload=block, size=len(block) * bytes_per_sample)
        tuples.append(TimedTuple(element, begin, len(block)))
    stream = TimedStream(media_type, tuples, time_system=system)
    return StreamMediaObject(media_type, descriptor, stream, name=name)


def image_object(pixels: np.ndarray, name: str,
                 color_model: str = "RGB") -> StillMediaObject:
    """Wrap an image array as a still media object."""
    if pixels.ndim != 3:
        raise MediaModelError(f"expected (h, w, c) pixels, got {pixels.shape}")
    media_type = media_type_registry.get("image")
    height, width, channels = pixels.shape
    descriptor = media_type.make_media_descriptor(
        width=width,
        height=height,
        depth=8 * channels if channels != 3 else 24,
        color_model=color_model,
    )
    return StillMediaObject(media_type, descriptor, pixels, name=name)


def score_object(score: Score, name: str) -> StreamMediaObject:
    """Wrap a score as a music media object (non-continuous stream)."""
    media_type = media_type_registry.get("score-music")
    stream = score.to_stream()
    descriptor = media_type.make_media_descriptor(
        tempo_bpm=score.tempo_bpm,
        duration=Rational.from_float(score.duration_seconds()),
    )
    obj = StreamMediaObject(media_type, descriptor, stream, name=name)
    obj.score = score  # expose the symbolic form to derivations
    return obj


def animation_object(scene: AnimationScene, name: str) -> StreamMediaObject:
    """Wrap an animation scene as a media object (non-continuous stream)."""
    media_type = media_type_registry.get("animation")
    stream = scene.to_stream()
    system = media_type.time_system
    descriptor = media_type.make_media_descriptor(
        frame_width=scene.width,
        frame_height=scene.height,
        duration=system.to_continuous(scene.span_ticks()),
    )
    obj = StreamMediaObject(media_type, descriptor, stream, name=name)
    obj.scene = scene
    return obj


def signal_of(audio_obj) -> np.ndarray:
    """Reassemble a block-audio object's integer sample array."""
    blocks = [t.element.payload for t in audio_obj.stream()]
    if not blocks:
        return np.empty((0, 1), dtype=np.int16)
    return np.concatenate(blocks)


def frames_of(video_obj) -> list[np.ndarray]:
    """Collect a video object's frame arrays in display order."""
    return [t.element.payload for t in video_obj.stream()]
