"""Tests for the player and recorder (capture -> interpretation -> play)."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.pcm import PcmCodec
from repro.core.rational import Rational
from repro.engine.player import CostModel, Player
from repro.engine.recorder import Recorder
from repro.errors import EngineError
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object


@pytest.fixture
def captured():
    """A recorded interleaved movie: 1 s of video + audio."""
    video = video_object(frames.scene(48, 32, 25, "orbit"), "video1")
    audio = audio_object(
        signals.sine(440, 1.0, 8000), "audio1",
        sample_rate=8000, block_samples=320,
    )
    blob = MemoryBlob()
    recorder = Recorder(blob)
    interpretation = recorder.record(
        [video, audio],
        encoders={
            "video1": JpegLikeCodec(quality=40).encode,
            "audio1": PcmCodec(16, 1).encode,
        },
    )
    return interpretation


class TestRecorder:
    def test_interpretation_complete(self, captured):
        assert captured.names() == ["audio1", "video1"]
        assert len(captured.sequence("video1")) == 25
        assert len(captured.sequence("audio1")) == 25
        captured.validate()

    def test_interleaving(self, captured):
        video_offsets = [e.blob_offset for e in captured.sequence("video1")]
        audio_offsets = [e.blob_offset for e in captured.sequence("audio1")]
        # Each audio block lands between its frame and the next.
        for i in range(24):
            assert video_offsets[i] < audio_offsets[i] < video_offsets[i + 1]

    def test_rates_annotated(self, captured):
        descriptor = captured.sequence("audio1").media_descriptor
        # 8000 samples/s * 2 bytes mono = 16000 B/s.
        assert descriptor["average_data_rate"] == 16000
        assert descriptor["peak_data_rate"] == 16000

    def test_video_rate_positive(self, captured):
        descriptor = captured.sequence("video1").media_descriptor
        assert descriptor["average_data_rate"] > 0
        assert descriptor["peak_data_rate"] >= descriptor["average_data_rate"]

    def test_decoded_frames_recognizable(self, captured):
        from repro.codecs.jpeg_like import psnr
        codec = JpegLikeCodec()
        stream = captured.materialize(
            "video1", decode=lambda raw, entry: codec.decode(raw)
        )
        original = frames.scene(48, 32, 25, "orbit")
        # Quality 40 on a small saturated frame: recognizable, not pristine.
        assert psnr(original[0], stream.tuples[0].element.payload) > 20

    def test_raw_ndarray_default_encoder(self):
        video = video_object(frames.scene(16, 16, 3, "pan"), "v")
        interpretation = Recorder(MemoryBlob()).record([video])
        entry = interpretation.sequence("v").entry(0)
        assert entry.size == 16 * 16 * 3

    def test_empty_rejected(self):
        with pytest.raises(EngineError):
            Recorder(MemoryBlob()).record([])

    def test_sequential_mode(self):
        video = video_object(frames.scene(16, 16, 3, "pan"), "v")
        audio = audio_object(signals.sine(440, 0.1, 8000), "a",
                             sample_rate=8000, block_samples=266)
        recorder = Recorder(MemoryBlob(), interleave=False)
        interpretation = recorder.record([video, audio])
        video_end = max(
            e.blob_offset + e.size for e in interpretation.sequence("v")
        )
        audio_start = min(e.blob_offset for e in interpretation.sequence("a"))
        assert audio_start >= video_end


class TestPlayer:
    def test_plays_clean_with_ample_bandwidth(self, captured):
        player = Player(CostModel(bandwidth=10_000_000), prefetch_depth=2)
        report = player.play(captured)
        assert report.element_count == 50
        assert report.underruns == 0
        assert report.jitter == 0

    def test_underruns_when_bandwidth_starved(self, captured):
        starved = Player(CostModel(bandwidth=20_000), prefetch_depth=2)
        report = starved.play(captured)
        assert report.underruns > 0
        assert report.max_lateness > 0

    def test_interleaved_playback_is_seek_free(self, captured):
        player = Player(CostModel(bandwidth=1_000_000))
        report = player.play(captured)
        assert report.seeks == 0

    def test_required_rate_positive(self, captured):
        report = Player().play(captured)
        assert report.required_rate > 0
        assert report.duration == Rational(24, 25)

    def test_subset_playback(self, captured):
        report = Player().play(captured, names=["audio1"])
        assert report.element_count == 25

    def test_offsets_shift_deadlines(self, captured):
        player = Player()
        shifted = player.plan_interpretation(
            captured, offsets={"audio1": Rational(10)}
        )
        # Video now entirely precedes audio in presentation order.
        assert shifted[0].label.startswith("video1")
        assert shifted[-1].label.startswith("audio1")

    def test_empty_plan(self):
        report = Player().play([])
        assert report.element_count == 0

    def test_prefetch_depth_validation(self):
        with pytest.raises(EngineError):
            Player(prefetch_depth=0)

    def test_deeper_prefetch_never_hurts(self, captured):
        starved = CostModel(bandwidth=120_000)
        shallow = Player(starved, prefetch_depth=1).play(captured)
        deep = Player(starved, prefetch_depth=16).play(captured)
        assert deep.underruns <= shallow.underruns

    def test_summary_text(self, captured):
        text = Player().play(captured).summary()
        assert "elements" in text and "jitter" in text


class TestPlayMultimedia:
    def test_composed_playback(self):
        from repro.core.composition import MultimediaObject

        video = video_object(frames.scene(16, 16, 10, "pan"), "v")
        audio = audio_object(signals.sine(440, 0.4, 8000), "a",
                             sample_rate=8000, block_samples=320)
        multimedia = MultimediaObject("m")
        multimedia.add_temporal(video, at=0, label="v")
        multimedia.add_temporal(audio, at=Rational(1, 5), label="a")
        report = Player(CostModel(bandwidth=10_000_000)).play(multimedia)
        assert report.element_count == 20
        assert report.underruns == 0
