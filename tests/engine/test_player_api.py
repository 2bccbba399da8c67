"""Tests for the polymorphic ``Player.play`` front door and the policy
``replace`` helpers."""

import json

import pytest

from repro.blob.blob import MemoryBlob
from repro.core.composition import MultimediaObject
from repro.core.media_object import InterpretedMediaObject
from repro.core.rational import Rational
from repro.engine.player import (
    LATENESS_BUCKETS,
    AdaptationPolicy,
    CostModel,
    Player,
    RetryPolicy,
)
from repro.engine.recorder import Recorder
from repro.errors import EngineError
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object
from repro.obs import Observability
from tests.obs.reference import ReferenceRegistry


@pytest.fixture(scope="module")
def movie():
    video = video_object(frames.scene(32, 24, 8, "orbit"), "video1")
    audio = audio_object(signals.sine(440, 0.2, 8000), "audio1",
                         sample_rate=8000)
    return Recorder(MemoryBlob()).record([video, audio])


@pytest.fixture
def player():
    return Player(CostModel(bandwidth=2_000_000))


def _multimedia():
    video = video_object(frames.scene(16, 16, 10, "pan"), "v")
    audio = audio_object(signals.sine(440, 0.4, 8000), "a",
                         sample_rate=8000, block_samples=320)
    multimedia = MultimediaObject("mm")
    multimedia.add_temporal(video, at=0, label="v")
    multimedia.add_temporal(audio, at=Rational(1, 5), label="a")
    return multimedia


class TestPolymorphicPlay:
    def test_plays_interpretation(self, player, movie):
        report = player.play(movie)
        assert report.element_count == len(movie.sequence("video1")) + len(
            movie.sequence("audio1")
        )

    def test_interpretation_with_names_and_offsets(self, player, movie):
        """A subset of the sequences plays as an alternative
        interpretation; a sequence moved on the timeline plays as a
        temporal composition."""
        restricted = player.play(movie.restrict(["video1"]))
        assert restricted.element_count == len(movie.sequence("video1"))
        shifted = MultimediaObject("shifted")
        shifted.add_temporal(InterpretedMediaObject(movie, "video1"), at=1)
        shifted.add_temporal(InterpretedMediaObject(movie, "audio1"), at=0)
        report = player.play(shifted)
        assert report.element_count == player.play(movie).element_count
        assert report.duration == restricted.duration + 1

    def test_plays_multimedia_object(self, player):
        multimedia = _multimedia()
        report = player.play(multimedia)
        assert report.element_count > 0
        assert report == player.play(player.plan_multimedia(multimedia))

    def test_plays_planned_read_list(self, player, movie):
        reads = player.plan_interpretation(movie)
        assert player.play(reads) == player.play(movie)

    def test_empty_read_list(self, player):
        report = player.play([])
        assert report.element_count == 0

    def test_rejects_unknown_target(self, player):
        with pytest.raises(EngineError, match="cannot play"):
            player.play(42)

    def test_rejects_mixed_list(self, player):
        with pytest.raises(EngineError, match="cannot play"):
            player.play([1, 2, 3])


class TestKeywordOnlyPolicies:
    def test_retry_policy_rejects_positional(self):
        with pytest.raises(TypeError):
            RetryPolicy(5)

    def test_adaptation_policy_rejects_positional(self):
        with pytest.raises(TypeError):
            AdaptationPolicy(3)


class TestReplaceHelpers:
    def test_cost_model_replace(self):
        base = CostModel(bandwidth=1_000_000)
        faster = base.replace(bandwidth=2_000_000)
        assert faster.bandwidth == Rational(2_000_000)
        assert faster.seek_time == base.seek_time
        assert base.bandwidth == Rational(1_000_000)  # original untouched

    def test_retry_policy_replace(self):
        lenient = RetryPolicy(abort_skip_fraction=0.5)
        unbounded = lenient.replace(abort_skip_fraction=None)
        assert unbounded.abort_skip_fraction is None
        assert unbounded.max_retries == lenient.max_retries

    def test_adaptation_policy_replace(self):
        policy = AdaptationPolicy(levels=3)
        pinned = policy.replace(max_level=0)
        assert pinned.max_level == 0
        assert pinned.levels == 3

    def test_replace_revalidates(self):
        with pytest.raises(EngineError):
            CostModel().replace(bandwidth=0)
        with pytest.raises(EngineError):
            RetryPolicy().replace(max_retries=-1)
        with pytest.raises(EngineError):
            AdaptationPolicy(levels=3).replace(min_level=5)


class TestReportMetrics:
    def test_instrumented_play_embeds_snapshot(self, movie):
        obs = Observability()
        player = Player(CostModel(bandwidth=2_000_000), obs=obs)
        report = player.play(movie)
        assert report.metrics is not None
        assert "engine.play.runs" in report.metrics
        assert "metrics:" in report.summary()
        assert "engine.play.elements" in report.metrics_summary()

    def test_uninstrumented_play_has_no_snapshot(self, player, movie):
        report = player.play(movie)
        assert report.metrics is None
        assert report.metrics_summary() == "metrics: (none captured)"


class TestZeroLateness:
    @pytest.mark.parametrize("names", [["video1"], ["video1", "audio1"]])
    def test_zero_counts_equal_the_per_read_path(self, movie, names):
        """On-time sessions record their lateness as one count of zeros
        per sequence, late ones read by read; interleaved through one
        sink, the histogram equals every read folded one by one."""
        obs = Observability()
        on_time = Player(CostModel(bandwidth=2_000_000), obs=obs)
        late = Player(CostModel(bandwidth=10_000), obs=obs)
        reference = ReferenceRegistry().get(
            "engine.play.lateness_seconds", "histogram", LATENESS_BUCKETS)
        reports = [player.play(movie.restrict(names))
                   for player in (on_time, late, on_time, late, on_time)]
        assert [r.max_lateness > 0 for r in reports] == [
            False, True, False, True, False]
        for report in reports:
            for label, _, lateness in report.per_read:
                reference.observe(float(lateness),
                                  sequence=label.split("[", 1)[0])
        actual = obs.metrics.get("engine.play.lateness_seconds").export()
        assert json.dumps(actual) == json.dumps(reference.export())
        assert len(actual["series"]) == len(names)


class TestDeadlines:
    def test_unchanged_frequency_keeps_the_deadlines(self, movie, player):
        """Deadlines already at the asked frequency come back as they
        are, with no rescaled copy of the tick list; another multiple
        rescales the ticks and keeps the exact times."""
        deadlines = player.deadlines(player.plan_interpretation(movie))
        assert deadlines.at(deadlines.frequency) is deadlines
        doubled = deadlines.at(2 * deadlines.frequency)
        assert doubled.frequency == 2 * deadlines.frequency
        assert doubled.ticks == [2 * t for t in deadlines.ticks]
        assert doubled.times == deadlines.times
