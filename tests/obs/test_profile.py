"""Stage profiler and span self-time breakdown."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.core.rational import Rational
from repro.engine.player import CostModel, Player
from repro.engine.recorder import Recorder
from repro.errors import ObservabilityError
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import (
    NULL_OBS,
    Observability,
    STAGE_BUCKETS,
    STAGE_METRIC,
    profile_stages,
    self_time_breakdown,
)


@pytest.fixture()
def played_obs():
    obs = Observability()
    movie = Recorder(MemoryBlob()).record(
        [video_object(frames.scene(32, 24, 8, "pan"), "v")]
    )
    Player(CostModel(bandwidth=2_000_000), obs=obs).play(movie)
    return obs


class TestHistogramQuantiles:
    def histogram(self):
        obs = Observability()
        return obs.metrics.histogram("h", buckets=(1.0, 2.0, 4.0))

    def test_quantile_interpolates_within_bucket(self):
        hist = self.histogram()
        for value in (0.5, 1.5, 3.0, 3.5):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.0
        # Target rank 2 of 4 lands at the boundary of the (1, 2] bucket.
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 4.0

    def test_quantile_of_empty_is_zero(self):
        assert self.histogram().quantile(0.5) == 0.0

    def test_quantile_overflow_bucket_clamps_to_last_boundary(self):
        hist = self.histogram()
        hist.observe(100.0)
        assert hist.quantile(0.99) == 4.0

    def test_quantile_validates_range(self):
        with pytest.raises(ObservabilityError, match="quantile"):
            self.histogram().quantile(1.5)

    def test_sum_per_label_series(self):
        hist = self.histogram()
        hist.observe(1.0, stage="a")
        hist.observe(2.0, stage="a")
        hist.observe(5.0, stage="b")
        assert hist.sum(stage="a") == 3.0
        assert hist.sum(stage="b") == 5.0
        assert hist.sum(stage="zzz") == 0.0


class TestProfileStages:
    def test_clean_playback_attributes_stages(self, played_obs):
        profile = profile_stages(played_obs)
        names = [s.stage for s in profile.stages]
        assert "page_read" in names
        assert "deliver" in names
        assert profile.total_seconds > 0

    def test_shares_sum_to_one(self, played_obs):
        profile = profile_stages(played_obs)
        assert sum(s.share for s in profile.stages) == pytest.approx(1.0)

    def test_stage_lookup_and_dominant(self, played_obs):
        profile = profile_stages(played_obs)
        stats = profile.stage("page_read")
        assert stats is not None and stats.count > 0
        assert profile.stage("nonexistent") is None
        assert profile.dominant_stage() in [s.stage for s in profile.stages]

    def test_quantiles_bounded_by_buckets(self, played_obs):
        for stats in profile_stages(played_obs).stages:
            assert 0.0 <= stats.p50 <= stats.p99 <= STAGE_BUCKETS[-1]

    def test_table_renders(self, played_obs):
        text = profile_stages(played_obs).table()
        assert "pipeline stage profile" in text
        assert "page_read" in text

    def test_empty_when_uninstrumented(self):
        assert profile_stages(NULL_OBS).stages == ()
        assert profile_stages(Observability()).stages == ()
        assert profile_stages(NULL_OBS).dominant_stage() is None

    def test_stage_metric_name_matches_player(self, played_obs):
        assert STAGE_METRIC in played_obs.metrics


class TestSelfTime:
    def test_subtracts_children_same_domain(self):
        obs = Observability()
        obs.tracer.record("parent", Rational(0), Rational(10))
        child = obs.tracer.record("child", Rational(2), Rational(5))
        child.parent_id = obs.tracer.spans[0].span_id
        rows = {r.name: r for r in self_time_breakdown(obs)}
        assert rows["parent"].total == Rational(10)
        assert rows["parent"].self_time == Rational(7)
        assert rows["child"].self_time == Rational(3)

    def test_cross_domain_child_not_subtracted(self):
        obs = Observability()
        with obs.tracer.span("outer"):  # logical ticks
            obs.tracer.record("inner", Rational(0), Rational(5))
        rows = {r.name: r for r in self_time_breakdown(obs)}
        assert rows["outer"].total == rows["outer"].self_time
        assert rows["inner"].total == Rational(5)
