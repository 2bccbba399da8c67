"""Tests for prefetch simulation."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rational import Rational
from repro.engine.buffers import simulate_prefetch
from repro.errors import EngineError


def rationals(values):
    return [Rational(*v) if isinstance(v, tuple) else Rational(v) for v in values]


class TestPrefetchSimulation:
    def test_fast_producer_no_underruns(self):
        # Production finishes well ahead of each (shifted) deadline.
        production = rationals([(1, 100), (2, 100), (3, 100), (4, 100)])
        deadlines = rationals([0, 1, 2, 3])
        report = simulate_prefetch(production, deadlines, depth=1)
        assert report.underruns == 0
        assert report.startup_delay == Rational(1, 100)

    def test_slow_producer_underruns_without_buffering(self):
        # Elements take 1.5x their presentation interval to produce.
        production = rationals([(3, 2), 3, (9, 2), 6])
        deadlines = rationals([0, 1, 2, 3])
        report = simulate_prefetch(production, deadlines, depth=1)
        assert report.underruns > 0

    def test_deeper_prefetch_absorbs_jitter(self):
        # Bursty production: slow elements early, fast later.
        production = rationals([2, 4, (17, 4), (18, 4), (19, 4), (20, 4)])
        deadlines = rationals([0, 1, 2, 3, 4, 5])
        shallow = simulate_prefetch(production, deadlines, depth=1)
        deep = simulate_prefetch(production, deadlines, depth=3)
        assert deep.underruns < shallow.underruns

    def test_startup_delay_grows_with_depth(self):
        production = rationals([1, 2, 3, 4])
        deadlines = rationals([0, 1, 2, 3])
        d1 = simulate_prefetch(production, deadlines, depth=1)
        d3 = simulate_prefetch(production, deadlines, depth=3)
        assert d3.startup_delay > d1.startup_delay

    def test_depth_capped_by_element_count(self):
        production = rationals([1, 2])
        deadlines = rationals([0, 1])
        report = simulate_prefetch(production, deadlines, depth=10)
        assert report.startup_delay == 2

    def test_underrun_fraction(self):
        production = rationals([1, 10])
        deadlines = rationals([0, 1])
        report = simulate_prefetch(production, deadlines, depth=1)
        assert report.underrun_fraction == 0.5
        assert report.max_wait == 10 - (1 + 1)

    def test_empty(self):
        report = simulate_prefetch([], [], depth=3)
        assert report.presented == 0
        assert report.underrun_fraction == 0.0
        assert report.lateness == []

    def test_validation(self):
        with pytest.raises(EngineError):
            simulate_prefetch([Rational(1)], [], depth=1)
        with pytest.raises(EngineError):
            simulate_prefetch([Rational(1)], [Rational(0)], depth=0)


# Non-decreasing times as running sums of small exact steps; a zero step
# makes ties, which the lateness and high-water scans must both handle.
step = st.fractions(min_value=0, max_value=3, max_denominator=12).map(Rational)


def high_water_oracle(production, presentations):
    """Reference high-water scan over already computed presentation
    times: elements produced but not yet presented, counted at each
    production instant."""
    high_water = presented_before = 0
    for index, produced in enumerate(production):
        while (presented_before < index
               and presentations[presented_before] < produced):
            presented_before += 1
        high_water = max(high_water, index + 1 - presented_before)
    return high_water


class TestOnePassLateness:
    @settings(max_examples=200)
    @given(data=st.data(), depth=st.integers(1, 8))
    def test_lateness_matches_the_stepper_formula(self, data, depth):
        production = list(accumulate(
            data.draw(st.lists(step, min_size=1, max_size=40))))
        count = len(production)
        gaps = data.draw(st.lists(step, min_size=count - 1,
                                  max_size=count - 1))
        deadlines = list(accumulate(gaps, initial=Rational(0)))
        report = simulate_prefetch(production, deadlines, depth)
        startup = report.startup_delay
        # Lateness by its definition, computed apart from the prefetch
        # pass: how far each production overshoots its shifted deadline.
        expected = [max(p - (startup + d), Rational(0))
                    for p, d in zip(production, deadlines)]
        assert report.lateness == expected
        assert all(type(late) is Rational for late in report.lateness)
        assert report.max_wait == max(expected)
        assert report.underruns == sum(1 for late in expected if late > 0)
        presentations = [max(p, startup + d)
                         for p, d in zip(production, deadlines)]
        assert report.high_water == high_water_oracle(production,
                                                      presentations)
