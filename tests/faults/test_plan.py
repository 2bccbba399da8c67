"""Tests for the deterministic fault plan."""

import pytest

from repro.core.rational import Rational
from repro.errors import EngineError
from repro.faults import FaultPlan


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=99, transient_rate=0.3, bad_page_rate=0.1,
                      corruption_rate=0.2, degraded_fraction=0.4)
        b = FaultPlan(seed=99, transient_rate=0.3, bad_page_rate=0.1,
                      corruption_rate=0.2, degraded_fraction=0.4)
        for page in range(200):
            assert a.is_bad_page(page) == b.is_bad_page(page)
            for visit in range(4):
                assert a.is_transient(page, visit) == b.is_transient(page, visit)
                assert a.is_corrupted(page, visit) == b.is_corrupted(page, visit)
        for index in range(500):
            assert a.is_degraded(index) == b.is_degraded(index)

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, transient_rate=0.5)
        b = FaultPlan(seed=2, transient_rate=0.5)
        draws_a = [a.is_transient(p, 0) for p in range(200)]
        draws_b = [b.is_transient(p, 0) for p in range(200)]
        assert draws_a != draws_b

    def test_rates_are_respected_roughly(self):
        plan = FaultPlan(seed=5, bad_page_rate=0.25)
        hits = sum(plan.is_bad_page(p) for p in range(4000))
        assert 0.18 < hits / 4000 < 0.32

    def test_zero_rates_never_fault(self):
        plan = FaultPlan(seed=3)
        assert not any(plan.is_bad_page(p) for p in range(100))
        assert not any(plan.is_transient(p, 0) for p in range(100))
        assert not any(plan.is_corrupted(p, 0) for p in range(100))
        assert not plan.is_degraded(0)
        assert not plan.is_degraded(17)

    def test_fork_is_deterministic_and_independent(self):
        plan = FaultPlan(seed=11, transient_rate=0.5)
        assert plan.fork(1) == plan.fork(1)
        assert plan.fork(1).seed != plan.fork(2).seed
        assert plan.fork(1).transient_rate == 0.5


class TestCorruption:
    def test_corrupt_flips_exactly_one_bit(self):
        plan = FaultPlan(seed=21, corruption_rate=1.0)
        data = bytes(64)
        corrupted = plan.corrupt(data, page_no=3, visit=0)
        assert len(corrupted) == 64
        diff = [a ^ b for a, b in zip(data, corrupted)]
        changed = [d for d in diff if d]
        assert len(changed) == 1
        assert bin(changed[0]).count("1") == 1

    def test_corrupt_is_deterministic(self):
        plan = FaultPlan(seed=21, corruption_rate=1.0)
        data = bytes(range(256))
        assert plan.corrupt(data, 0, 0) == plan.corrupt(data, 0, 0)
        assert plan.corrupt(data, 0, 0) != plan.corrupt(data, 0, 1)

    def test_corrupt_empty_page_is_noop(self):
        plan = FaultPlan(seed=21, corruption_rate=1.0)
        assert plan.corrupt(b"", 0, 0) == b""


class TestDegradation:
    def test_windows_span_consecutive_reads(self):
        plan = FaultPlan(seed=8, degraded_fraction=0.5, degradation_span=16,
                         degraded_bandwidth_factor=Rational(1, 4),
                         degraded_latency=Rational(1, 100))
        for window in range(20):
            states = {plan.is_degraded(window * 16 + i) for i in range(16)}
            assert len(states) == 1  # whole window agrees
        degraded = [i for i in range(1600) if plan.is_degraded(i)]
        assert degraded  # 50% of windows should hit some
        # A degraded read is priced at the plan's factor and latency.
        assert plan.degraded_bandwidth_factor == Rational(1, 4)
        assert plan.degraded_latency == Rational(1, 100)


class TestGeometry:
    def test_pages_of(self):
        plan = FaultPlan(seed=0, page_size=100)
        assert list(plan.pages_of(0, 100)) == [0]
        assert list(plan.pages_of(0, 101)) == [0, 1]
        assert list(plan.pages_of(250, 100)) == [2, 3]
        assert list(plan.pages_of(250, 0)) == []


class TestValidation:
    def test_bad_rates_rejected(self):
        with pytest.raises(EngineError, match="transient_rate"):
            FaultPlan(seed=0, transient_rate=1.5)
        with pytest.raises(EngineError, match="bad_page_rate"):
            FaultPlan(seed=0, bad_page_rate=-0.1)

    def test_bad_geometry_rejected(self):
        with pytest.raises(EngineError, match="page_size"):
            FaultPlan(seed=0, page_size=0)
        with pytest.raises(EngineError, match="degradation_span"):
            FaultPlan(seed=0, degradation_span=0)

    def test_bad_degradation_rejected(self):
        with pytest.raises(EngineError, match="bandwidth_factor"):
            FaultPlan(seed=0, degraded_bandwidth_factor=Rational(3, 2))
        with pytest.raises(EngineError, match="bandwidth_factor"):
            FaultPlan(seed=0, degraded_bandwidth_factor=Rational(0))
        with pytest.raises(EngineError, match="latency"):
            FaultPlan(seed=0, degraded_latency=Rational(-1))


class TestWriteFaultDraws:
    def test_write_outcome_partitions_the_unit_interval(self):
        plan = FaultPlan(seed=5, torn_write_rate=0.3,
                         unsynced_survival_rate=0.3)
        fates = {plan.write_outcome(i) for i in range(200)}
        assert fates == {"kept", "torn", "lost"}

    def test_write_outcome_deterministic(self):
        plan = FaultPlan(seed=5, torn_write_rate=0.5)
        again = FaultPlan(seed=5, torn_write_rate=0.5)
        assert [plan.write_outcome(i) for i in range(50)] == \
            [again.write_outcome(i) for i in range(50)]

    def test_default_plan_loses_everything(self):
        plan = FaultPlan(seed=5)
        assert all(plan.write_outcome(i) == "lost" for i in range(50))

    def test_torn_length_strictly_partial(self):
        plan = FaultPlan(seed=5, torn_write_rate=1.0)
        for index in range(50):
            length = plan.torn_length(4096, index)
            assert 1 <= length <= 4095
        assert plan.torn_length(1, 0) == 1

    def test_short_write_draws(self):
        plan = FaultPlan(seed=5, short_write_rate=1.0)
        assert plan.is_short_write(0, 0)
        for index in range(20):
            assert 1 <= plan.short_length(256, 3, index) <= 255
        assert plan.short_length(1, 0, 0) == 1

    def test_lying_fsync_rate_zero_never_lies(self):
        plan = FaultPlan(seed=5)
        assert not any(plan.is_lying_fsync(i) for i in range(50))

    def test_fate_rates_must_not_exceed_one(self):
        with pytest.raises(EngineError, match="must not"):
            FaultPlan(seed=0, torn_write_rate=0.6,
                      unsynced_survival_rate=0.6)

    def test_write_rates_validated(self):
        with pytest.raises(EngineError, match="short_write_rate"):
            FaultPlan(seed=0, short_write_rate=2.0)
        with pytest.raises(EngineError, match="lying_fsync_rate"):
            FaultPlan(seed=0, lying_fsync_rate=-0.5)
