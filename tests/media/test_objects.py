"""Tests for media-object builders."""

import numpy as np
import pytest

from repro.core.media_types import MediaKind
from repro.core.rational import Rational
from repro.errors import MediaModelError
from repro.media import frames, signals
from repro.media.animation import demo_scene
from repro.media.music import demo_score
from repro.media.objects import (
    DEFAULT_BLOCK_SAMPLES,
    animation_object,
    audio_object,
    frames_of,
    image_object,
    score_object,
    signal_of,
    video_object,
)
from tests.media.sources import midi_object


class TestVideoObject:
    def test_build(self, small_frames):
        obj = video_object(small_frames, "v")
        assert obj.kind is MediaKind.VIDEO
        assert len(obj.stream()) == 8
        assert obj.descriptor["frame_width"] == 64
        assert obj.descriptor["duration"] == Rational(8, 25)

    def test_stream_uniform(self, small_frames):
        assert video_object(small_frames, "v").stream().is_uniform()

    def test_empty_rejected(self):
        with pytest.raises(MediaModelError):
            video_object([], "v")

    def test_mismatched_shapes_rejected(self, small_frames):
        bad = small_frames + [frames.gradient_frame(32, 32)]
        with pytest.raises(MediaModelError, match="differs"):
            video_object(bad, "v")

    def test_frames_of_roundtrip(self, small_frames):
        obj = video_object(small_frames, "v")
        assert all(
            np.array_equal(a, b)
            for a, b in zip(frames_of(obj), small_frames)
        )

    def test_ntsc_type(self, small_frames):
        obj = video_object(small_frames, "v", media_type_name="ntsc-video")
        assert obj.media_type.name == "ntsc-video"
        assert obj.descriptor["duration"] == Rational(8 * 1001, 30000)


class TestAudioObject:
    def test_default_blocking_matches_paper(self, tone):
        # Default block = 1764 samples: the Figure 2 interleaving unit.
        assert DEFAULT_BLOCK_SAMPLES == 1764

    def test_blocks_and_duration(self, tone):
        obj = audio_object(tone, "a", sample_rate=8000, block_samples=500)
        stream = obj.stream()
        assert len(stream) == 4  # 2000 samples / 500
        assert stream.is_continuous()
        assert obj.descriptor["duration"] == Rational(2000, 8000)

    def test_final_partial_block(self, tone):
        obj = audio_object(tone, "a", sample_rate=8000, block_samples=1500)
        stream = obj.stream()
        assert [t.duration for t in stream] == [1500, 500]
        assert stream.is_continuous()

    def test_stereo_channels(self):
        stereo = signals.to_stereo(signals.sine(440, 0.1, 8000))
        obj = audio_object(stereo, "a", sample_rate=8000)
        assert obj.descriptor["channels"] == 2

    def test_signal_of_roundtrip(self, tone):
        obj = audio_object(tone, "a", sample_rate=8000, block_samples=320)
        samples = signal_of(obj)
        assert samples.shape == (2000, 1)

    def test_element_sizes(self, tone):
        obj = audio_object(tone, "a", sample_rate=8000, block_samples=500,
                           sample_size=16)
        assert obj.stream().tuples[0].element.size == 1000  # 500 * 2 bytes


class TestStillAndSymbolic:
    def test_image_object(self, small_frame):
        obj = image_object(small_frame, "img")
        assert obj.kind is MediaKind.IMAGE
        assert obj.value() is small_frame
        assert obj.descriptor["depth"] == 24

    def test_image_shape_validation(self):
        with pytest.raises(MediaModelError):
            image_object(np.zeros((4, 4)), "img")

    def test_score_object(self):
        obj = score_object(demo_score(), "music")
        assert obj.kind is MediaKind.MUSIC
        assert obj.stream().is_non_continuous()
        assert obj.score is not None

    def test_midi_object(self):
        obj = midi_object(demo_score(), "midi")
        assert obj.stream().is_event_based()
        assert obj.descriptor["division"] == 960

    def test_animation_object(self):
        obj = animation_object(demo_scene(), "anim")
        assert obj.kind is MediaKind.ANIMATION
        assert obj.stream().has_gaps()
        assert obj.descriptor["frame_width"] == 160
