"""Tests for rendered composition: audio mixdown and video reverse."""

import numpy as np
import pytest

from repro.core.composition import MultimediaObject
from repro.edit.mixdown import mixdown
from repro.errors import CompositionError
from repro.media import signals
from repro.media.objects import audio_object, video_object


@pytest.fixture
def clip():
    shot = [
        np.full((16, 16, 3), 10 * (i + 1), dtype=np.uint8) for i in range(25)
    ]
    return video_object(shot, "clip")


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
