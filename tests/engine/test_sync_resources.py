"""Tests for inter-stream sync measurement."""

import pytest

from repro.core.rational import Rational
from repro.engine.sync import measure_sync
from repro.errors import EngineError


def rl(values):
    return [Rational(*v) if isinstance(v, tuple) else Rational(v) for v in values]


class TestMeasureSync:
    def test_perfect_sync(self):
        lateness = rl([0, 0, 0])
        deadlines = rl([0, 1, 2])
        report = measure_sync(lateness, deadlines, lateness, deadlines)
        assert report.max_skew == 0
        assert report.within_tolerance(Rational(1, 100))

    def test_one_stream_lags(self):
        deadlines = rl([0, 1, 2])
        a = rl([0, 0, 0])
        b = rl([(1, 10), (1, 10), (1, 10)])
        report = measure_sync(a, deadlines, b, deadlines)
        assert report.max_skew == Rational(1, 10)
        assert not report.within_tolerance(Rational(8, 100))  # > 80 ms

    def test_nearest_deadline_pairing(self):
        a_deadlines = rl([0, 1])
        b_deadlines = rl([(1, 2), (3, 2)])
        a = rl([0, 0])
        b = rl([(1, 20), (3, 20)])
        report = measure_sync(a, a_deadlines, b, b_deadlines)
        assert report.samples == 2
        assert report.max_skew == Rational(3, 20)

    def test_mismatched_lists_rejected(self):
        with pytest.raises(EngineError):
            measure_sync(rl([0]), [], rl([0]), rl([0]))

    def test_empty(self):
        report = measure_sync([], [], [], [])
        assert report.samples == 0
