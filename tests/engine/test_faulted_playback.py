"""Tests for resilient playback under injected storage faults."""

import dataclasses
import itertools

import pytest

from repro.core.rational import Rational
from repro.engine.player import (
    AdaptationPolicy,
    CostModel,
    Player,
    RetryPolicy,
    _PlannedRead,
)
from repro.errors import EngineError, PlaybackAbortError
from repro.faults import FaultPlan
from repro.obs import STAGE_BUCKETS, STAGE_METRIC, Observability


def make_reads(count=50, size=1000, fps=25):
    return [
        _PlannedRead(f"v[{i}]", i * size, size, Rational(i, fps))
        for i in range(count)
    ]


def play(reads, plan=None, policy=None, adaptation=None, bandwidth=100_000,
         **player_kwargs):
    player = Player(CostModel(bandwidth=bandwidth), fault_plan=plan,
                    retry_policy=policy, adaptation=adaptation,
                    **player_kwargs)
    return player.play(reads)


class TestCleanPathUnchanged:
    def test_no_plan_reports_clean_defaults(self):
        report = play(make_reads())
        assert report.retries == 0
        assert report.skipped_elements == 0
        assert report.glitches == 0
        assert report.delivered_quality == 1

    def test_zero_rate_plan_matches_clean_run(self):
        """An all-zero plan exercises the faulted branch of the stepper
        but must agree with the clean branch on every metric: played
        plainly, played instrumented, and stepped under a shifting
        bandwidth share."""
        reads = make_reads()
        zero = FaultPlan(seed=4)
        assert play(reads, plan=zero) == play(reads)

        def observed(plan):
            # The embedded metric snapshots differ by design: they count
            # runs per mode ("clean" or "faulted").
            report = play(reads, plan=plan, obs=Observability())
            assert report.slo
            return dataclasses.replace(report, metrics=None)

        assert observed(zero) == observed(None)

        def stepped(plan):
            factors = itertools.cycle(
                [Rational(1), Rational(2), Rational(3, 2)])
            player = Player(CostModel(bandwidth=100_000), fault_plan=plan)
            stepper = player.stepper(reads,
                                     share_factor=lambda: next(factors))
            durations = []
            while True:
                try:
                    durations.append(next(stepper))
                except StopIteration as stop:
                    return durations, stop.value

        assert stepped(zero) == stepped(None)
        assert stepped(None)[1] != play(reads)


class TestRetries:
    def test_retries_charge_simulated_time(self):
        reads = make_reads()
        plan = FaultPlan(seed=9, transient_rate=0.3)
        calm = play(reads, plan=plan,
                    policy=RetryPolicy(max_retries=10, backoff=Rational(0)))
        slow = play(reads, plan=plan,
                    policy=RetryPolicy(max_retries=10,
                                       backoff=Rational(1, 10)))
        assert calm.retries == slow.retries > 0
        # Backoff pauses are simulated time: they push lateness/underruns up.
        assert slow.max_lateness > calm.max_lateness
        assert slow.underruns >= calm.underruns

    def test_degraded_latency_charged_as_page_read_time(self):
        """A read in a degraded window waits the plan's extra latency:
        the element takes that much longer, and the stage profile books
        the wait as page-read time."""
        reads = make_reads()
        wait = Rational(1, 100)

        def elapsed(latency, obs=None):
            plan = FaultPlan(seed=4, degraded_fraction=1.0,
                             degraded_bandwidth_factor=Rational(1),
                             degraded_latency=latency)
            player = Player(CostModel(bandwidth=100_000), fault_plan=plan,
                            obs=obs)
            stepper = player.stepper(reads)
            total = Rational(0)
            while True:
                try:
                    total += next(stepper)
                except StopIteration:
                    return total

        assert elapsed(wait) - elapsed(Rational(0)) == wait * len(reads)
        waited, prompt = Observability(), Observability()
        assert (elapsed(wait, waited) - elapsed(Rational(0), prompt)
                == wait * len(reads))

        def page_read(obs):
            return obs.metrics.histogram(
                STAGE_METRIC, buckets=STAGE_BUCKETS).sum(stage="page_read")

        assert page_read(waited) - page_read(prompt) == \
            pytest.approx(float(wait) * len(reads))

    def test_all_elements_recovered_with_enough_retries(self):
        reads = make_reads()
        report = play(reads, plan=FaultPlan(seed=9, transient_rate=0.3),
                      policy=RetryPolicy(max_retries=50))
        assert report.skipped_elements == 0
        assert report.element_count == len(reads)
        assert report.retries > 0

    def test_same_seed_runs_are_identical(self):
        reads = make_reads()
        plan = FaultPlan(seed=123, transient_rate=0.2, bad_page_rate=0.05,
                         corruption_rate=0.1, degraded_fraction=0.3)
        adaptation = AdaptationPolicy(levels=3)
        a = play(reads, plan=plan, adaptation=adaptation)
        b = play(reads, plan=plan, adaptation=adaptation)
        assert a == b

    def test_different_seeds_differ(self):
        reads = make_reads(count=200)
        a = play(reads, plan=FaultPlan(seed=1, transient_rate=0.3))
        b = play(reads, plan=FaultPlan(seed=2, transient_rate=0.3))
        assert a != b


class TestSkipsAndGlitches:
    def test_bad_pages_skip_with_glitch(self):
        reads = make_reads()
        report = play(reads, plan=FaultPlan(seed=31, bad_page_rate=0.2))
        assert report.skipped_elements > 0
        assert 0 < report.glitches <= report.skipped_elements
        assert report.element_count == len(reads) - report.skipped_elements
        assert len(report.per_read) == report.element_count

    def test_consecutive_skips_merge_into_one_glitch(self):
        reads = make_reads(count=10)
        # Every page bad: one long glitch, ten skips.
        report = play(reads, plan=FaultPlan(seed=31, bad_page_rate=1.0))
        assert report.skipped_elements == 10
        assert report.glitches == 1
        assert report.element_count == 0

    def test_exhausted_retries_skip(self):
        reads = make_reads()
        report = play(reads, plan=FaultPlan(seed=17, transient_rate=0.9),
                      policy=RetryPolicy(max_retries=1))
        assert report.skipped_elements > 0

    def test_timeline_is_not_shortened_by_skips(self):
        reads = make_reads()
        clean = play(reads)
        faulted = play(reads, plan=FaultPlan(seed=31, bad_page_rate=0.2))
        assert faulted.duration == clean.duration

    def test_abort_when_skips_exceed_tolerance(self):
        reads = make_reads()
        with pytest.raises(PlaybackAbortError, match="beyond"):
            play(reads, plan=FaultPlan(seed=31, bad_page_rate=0.9),
                 policy=RetryPolicy(abort_skip_fraction=0.25))


class TestAdaptation:
    def test_degraded_bandwidth_lowers_delivered_quality(self):
        reads = make_reads()
        plan = FaultPlan(seed=41, degraded_fraction=0.6, degradation_span=8,
                         degraded_bandwidth_factor=Rational(1, 4))
        report = play(reads, plan=plan, adaptation=AdaptationPolicy(levels=3))
        assert report.skipped_elements == 0
        assert report.delivered_quality < 1
        assert report.delivered_quality > 0

    def test_adaptation_reduces_required_rate(self):
        reads = make_reads()
        plan = FaultPlan(seed=41, degraded_fraction=0.6, degradation_span=8,
                         degraded_bandwidth_factor=Rational(1, 4))
        fixed = play(reads, plan=plan)
        adapted = play(reads, plan=plan, adaptation=AdaptationPolicy(levels=3))
        assert adapted.required_rate < fixed.required_rate

    def test_full_bandwidth_keeps_full_quality(self):
        reads = make_reads()
        report = play(reads, plan=FaultPlan(seed=41),
                      adaptation=AdaptationPolicy(levels=3))
        assert report.delivered_quality == 1

    def test_sequences_filter(self):
        policy = AdaptationPolicy(levels=2, sequences=frozenset({"video"}))
        assert policy.applies_to("video[3]")
        assert not policy.applies_to("audio[3]")

    def test_max_level_caps_quality(self):
        policy = AdaptationPolicy(levels=3, max_level=0)
        assert policy.level_for(Rational(1)) == 0

    def test_level_selection(self):
        policy = AdaptationPolicy(levels=3)
        assert policy.level_for(Rational(1)) == 2
        assert policy.level_for(Rational(1, 2)) == 0
        assert policy.level_for(Rational(2, 3)) == 1
        assert policy.level_for(Rational(1, 100)) == 0  # never below base

    def test_validation(self):
        with pytest.raises(EngineError, match="levels"):
            AdaptationPolicy(levels=0)
        with pytest.raises(EngineError, match="fractions"):
            AdaptationPolicy(levels=2, fractions=(Rational(1),))
        with pytest.raises(EngineError, match="non-decreasing"):
            AdaptationPolicy(
                levels=2, fractions=(Rational(1), Rational(1, 2))
            )
        with pytest.raises(EngineError, match="full element"):
            AdaptationPolicy(
                levels=2, fractions=(Rational(1, 4), Rational(1, 2))
            )
        with pytest.raises(EngineError, match="max_level"):
            AdaptationPolicy(levels=3, min_level=1, max_level=0)


class TestSatellites:
    def test_stream_lateness_does_not_conflate_prefixes(self):
        from repro.engine.player import PlaybackReport

        report = PlaybackReport(
            element_count=2, duration=Rational(1), required_rate=Rational(1),
            startup_delay=Rational(0), underruns=0, underrun_fraction=0.0,
            max_lateness=Rational(0), jitter=Rational(0), prefetch_depth=1,
            seeks=0,
            per_read=[
                ("audio[0]", Rational(0), Rational(0)),
                ("audio2[0]", Rational(1), Rational(1)),
            ],
        )
        lateness, deadlines = report.stream_lateness("audio")
        assert deadlines == [Rational(0)]
        # Explicit bracketed prefixes still match verbatim.
        lateness2, deadlines2 = report.stream_lateness("audio2[")
        assert deadlines2 == [Rational(1)]

    def test_cost_model_rejects_negative_seek(self):
        with pytest.raises(EngineError, match="seek_time"):
            CostModel(seek_time=Rational(-1, 100))

    def test_cost_model_rejects_nonpositive_decode_rate(self):
        with pytest.raises(EngineError, match="decode_rate"):
            CostModel(decode_rate=Rational(0))

    def test_retry_policy_validation(self):
        with pytest.raises(EngineError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(EngineError, match="backoff_factor"):
            RetryPolicy(backoff_factor=Rational(1, 2))
        with pytest.raises(EngineError, match="abort_skip_fraction"):
            RetryPolicy(abort_skip_fraction=0.0)

    def test_degraded_bandwidth_scales_only_transfer(self):
        model = CostModel(bandwidth=1000, seek_time=Rational(1, 10),
                          decode_rate=Rational(500))
        full = model.element_cost(100, contiguous=False)
        halved = model.element_cost(100, contiguous=False,
                                    bandwidth_factor=Rational(1, 2))
        # Transfer term doubles; seek and decode terms do not.
        assert halved - full == Rational(100, 1000)
