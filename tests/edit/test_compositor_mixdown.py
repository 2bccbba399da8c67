"""Tests for rendered composition: spatial compositor and audio mixdown."""

import numpy as np
import pytest

from repro.core.composition import MultimediaObject
from repro.core.rational import Rational
from repro.edit.compositor import compose_frame
from repro.edit.mixdown import mixdown
from repro.errors import CompositionError
from repro.media import frames, signals
from repro.media.objects import audio_object, image_object, video_object


@pytest.fixture
def logo():
    return image_object(
        np.full((8, 8, 3), 200, dtype=np.uint8), "logo",
    )


@pytest.fixture
def clip():
    shot = [
        np.full((16, 16, 3), 10 * (i + 1), dtype=np.uint8) for i in range(25)
    ]
    return video_object(shot, "clip")


class TestComposeFrame:
    def test_background_only(self):
        m = MultimediaObject("m")
        frame = compose_frame(m, 0, 32, 24, background=(1, 2, 3))
        assert frame.shape == (24, 32, 3)
        assert tuple(frame[0, 0]) == (1, 2, 3)

    def test_image_placed(self, logo):
        m = MultimediaObject("m")
        m.add_spatial(logo, x=4, y=6, label="logo")
        frame = compose_frame(m, 0, 32, 24)
        assert tuple(frame[6, 4]) == (200, 200, 200)
        assert tuple(frame[5, 4]) == (0, 0, 0)
        assert tuple(frame[13, 11]) == (200, 200, 200)
        assert tuple(frame[14, 12]) == (0, 0, 0)

    def test_video_frame_at_time(self, clip):
        m = MultimediaObject("m")
        m.add_spatial(clip, x=0, y=0, label="v")
        early = compose_frame(m, 0, 16, 16)
        later = compose_frame(m, Rational(10, 25), 16, 16)
        assert early[0, 0, 0] == 10   # frame 0
        assert later[0, 0, 0] == 110  # frame 10

    def test_video_outside_span_absent(self, clip):
        m = MultimediaObject("m")
        m.add_spatial(clip, x=0, y=0, label="v")
        after = compose_frame(m, Rational(2), 16, 16)
        assert after.max() == 0

    def test_z_order(self, logo, clip):
        m = MultimediaObject("m")
        m.add_spatial(clip, x=0, y=0, z=0, label="under")
        m.add_spatial(logo, x=0, y=0, z=1, label="over")
        frame = compose_frame(m, 0, 16, 16)
        assert tuple(frame[0, 0]) == (200, 200, 200)  # logo on top
        assert frame[12, 12, 0] == 10                 # clip below/beside

    def test_clipping_at_edges(self, logo):
        m = MultimediaObject("m")
        m.add_spatial(logo, x=28, y=20, label="corner")
        frame = compose_frame(m, 0, 32, 24)
        assert tuple(frame[23, 31]) == (200, 200, 200)

    def test_fully_offscreen(self, logo):
        m = MultimediaObject("m")
        m.add_spatial(logo, x=100, y=100, label="gone")
        frame = compose_frame(m, 0, 32, 24)
        assert frame.max() == 0

    def test_integer_scale(self, logo):
        from repro.core.composition import SpatialComposition

        m = MultimediaObject("m")
        m.add(SpatialComposition(logo, x=0, y=0, scale=2, label="big"))
        frame = compose_frame(m, 0, 32, 24)
        assert tuple(frame[15, 15]) == (200, 200, 200)  # 8x8 -> 16x16

    def test_temporal_only_components_skipped(self, clip, tone):
        m = MultimediaObject("m")
        m.add_temporal(clip, at=0, label="v")
        audio = audio_object(tone, "a", sample_rate=8000, block_samples=250)
        m.add_temporal(audio, at=0, label="a")
        frame = compose_frame(m, 0, 16, 16)
        assert frame.max() == 0  # nothing has a spatial placement


class TestMixdown:
    @pytest.fixture
    def narrated(self):
        music = audio_object(signals.sine(220, 2.0, 8000) * 0.3, "music",
                             sample_rate=8000, block_samples=320)
        narration = audio_object(signals.sine(880, 1.0, 8000) * 0.3,
                                 "narration", sample_rate=8000,
                                 block_samples=320)
        m = MultimediaObject("m")
        m.add_temporal(music, at=0, label="music")
        m.add_temporal(narration, at=1, label="narration")
        return m

    def test_mix_length(self, narrated):
        mix = mixdown(narrated, sample_rate=8000)
        assert len(mix) == pytest.approx(16000, abs=2)

    def test_narration_only_in_second_half(self, narrated):
        mix = mixdown(narrated, sample_rate=8000)
        first = np.abs(np.fft.rfft(mix[:8000]))
        second = np.abs(np.fft.rfft(mix[8000:16000]))
        hz_880_bin = int(880 * 8000 / 8000)  # bin index = Hz here
        assert second[hz_880_bin] > 10 * max(first[hz_880_bin], 1e-9)

    def test_music_throughout(self, narrated):
        mix = mixdown(narrated, sample_rate=8000)
        assert np.abs(mix[:4000]).max() > 0.1
        assert np.abs(mix[12000:15000]).max() > 0.1

    def test_resampling(self, narrated):
        mix = mixdown(narrated, sample_rate=16000)
        assert len(mix) == pytest.approx(32000, abs=2)

    def test_gain(self, narrated):
        quiet = mixdown(narrated, sample_rate=8000, gain=0.1)
        loud = mixdown(narrated, sample_rate=8000, gain=0.5)
        assert np.abs(loud).max() > np.abs(quiet).max()

    def test_no_audio_rejected(self, clip):
        m = MultimediaObject("m")
        m.add_temporal(clip, at=0, label="v")
        with pytest.raises(CompositionError, match="no audio"):
            mixdown(m)


class TestVideoReverse:
    def test_reverse_order(self, clip):
        from repro.edit import MediaEditor

        reversed_clip = MediaEditor().reverse(clip, name="backwards")
        stream = reversed_clip.expand().stream()
        values = [t.element.payload[0, 0, 0] for t in stream]
        assert values == [10 * (25 - i) for i in range(25)]
        assert stream.is_continuous()
        assert stream.start == 0

    def test_double_reverse_identity(self, clip):
        from repro.edit import MediaEditor

        editor = MediaEditor()
        once = editor.reverse(clip)
        twice = editor.reverse(once.expand())
        restored = twice.expand().stream()
        original = clip.stream()
        assert [t.element.payload[0, 0, 0] for t in restored] == \
            [t.element.payload[0, 0, 0] for t in original]
