"""Tests for intervals and Allen's relations."""

from fractions import Fraction

import pytest

from repro.core.intervals import (
    Interval,
    IntervalRelation,
    relate,
    span,
)
from repro.core.rational import Rational
from repro.errors import MediaModelError


def iv(start, end):
    return Interval(Rational(start), Rational(end))


class TestInterval:
    def test_duration(self):
        assert iv(1, 4).duration == 3

    def test_of_constructor(self):
        assert Interval.of(2, 5) == iv(2, 7)

    def test_reversed_rejected(self):
        with pytest.raises(MediaModelError):
            iv(4, 1)

    @pytest.mark.parametrize("start,end", [
        (4, 1), (Fraction(1, 2), Fraction(1, 3)), (1.5, 1.0),
        (Rational(2), 1), (2, Rational(1)),
    ])
    def test_reversed_rejected_for_every_end_type(self, start, end):
        with pytest.raises(MediaModelError, match="precedes start"):
            Interval(start, end)

    @pytest.mark.parametrize("start,end,expected", [
        (1, 2, iv(1, 2)),
        (Fraction(1, 3), Fraction(1, 2), iv(Rational(1, 3), Rational(1, 2))),
        (0.5, 2.0, iv(Rational(1, 2), 2)),
        (Rational(1, 4), 3, iv(Rational(1, 4), 3)),
        (0, Fraction(5, 2), iv(0, Rational(5, 2))),
    ])
    def test_other_numbers_become_rationals(self, start, end, expected):
        interval = Interval(start, end)
        assert type(interval.start) is Rational
        assert type(interval.end) is Rational
        assert interval == expected

    def test_rational_ends_are_stored_as_given(self):
        start, end = Rational(1, 3), Rational(7, 2)
        interval = Interval(start, end)
        assert interval.start is start and interval.end is end

    def test_instant(self):
        assert iv(2, 2).is_instant
        assert not iv(2, 3).is_instant

    def test_contains_time_half_open(self):
        interval = iv(1, 3)
        assert interval.contains_time(1)
        assert interval.contains_time(2)
        assert not interval.contains_time(3)
        assert not interval.contains_time(0)

    def test_instant_contains_own_start(self):
        assert iv(2, 2).contains_time(2)
        assert not iv(2, 2).contains_time(3)

    def test_intersects(self):
        assert iv(0, 2).intersects(iv(1, 3))
        assert not iv(0, 2).intersects(iv(2, 3))  # half-open: meets, no overlap

    def test_instant_intersection_with_interval(self):
        assert iv(1, 1).intersects(iv(0, 2))
        assert iv(0, 2).intersects(iv(1, 1))

    def test_intersection_value(self):
        assert iv(0, 3).intersection(iv(1, 5)) == iv(1, 3)
        assert iv(0, 1).intersection(iv(2, 3)) is None

    def test_hull(self):
        assert iv(0, 1).hull(iv(3, 4)) == iv(0, 4)

    def test_translate(self):
        assert iv(1, 2).translate(3) == iv(4, 5)

    def test_scale(self):
        assert iv(1, 2).scale(2) == iv(2, 4)

    def test_scale_rejects_non_positive(self):
        with pytest.raises(MediaModelError):
            iv(1, 2).scale(0)

    def test_str(self):
        assert str(iv(0, 130)) == "[0:00.000, 2:10.000)"


class TestAllenRelations:
    CASES = [
        (iv(0, 1), iv(2, 3), IntervalRelation.BEFORE),
        (iv(2, 3), iv(0, 1), IntervalRelation.AFTER),
        (iv(0, 2), iv(2, 4), IntervalRelation.MEETS),
        (iv(2, 4), iv(0, 2), IntervalRelation.MET_BY),
        (iv(0, 3), iv(2, 5), IntervalRelation.OVERLAPS),
        (iv(2, 5), iv(0, 3), IntervalRelation.OVERLAPPED_BY),
        (iv(0, 2), iv(0, 5), IntervalRelation.STARTS),
        (iv(0, 5), iv(0, 2), IntervalRelation.STARTED_BY),
        (iv(2, 4), iv(0, 5), IntervalRelation.DURING),
        (iv(0, 5), iv(2, 4), IntervalRelation.CONTAINS),
        (iv(3, 5), iv(0, 5), IntervalRelation.FINISHES),
        (iv(0, 5), iv(3, 5), IntervalRelation.FINISHED_BY),
        (iv(1, 4), iv(1, 4), IntervalRelation.EQUAL),
    ]

    @pytest.mark.parametrize("a,b,expected", CASES)
    def test_relation(self, a, b, expected):
        assert relate(a, b) is expected

    @pytest.mark.parametrize("a,b,expected", CASES)
    def test_inverse_consistency(self, a, b, expected):
        assert relate(b, a) is expected.inverse

    def test_all_thirteen_reachable(self):
        seen = {relate(a, b) for a, b, _ in self.CASES}
        assert seen == set(IntervalRelation)

    def test_exactly_one_relation_holds(self):
        # Disjointness: every pair lands on exactly one relation; spot
        # check a grid of endpoints.
        endpoints = [(a, b) for a in range(4) for b in range(a, 4)]
        for sa, ea in endpoints:
            for sb, eb in endpoints:
                result = relate(iv(sa, ea), iv(sb, eb))
                assert isinstance(result, IntervalRelation)


class TestAggregates:
    def test_span(self):
        assert span([iv(1, 2), iv(5, 6), iv(0, 1)]) == iv(0, 6)

    def test_span_empty(self):
        assert span([]) is None


class TestInstantRelations:
    """Instants must classify consistently with ``intersects``.

    The regression fixed here: an instant at another interval's start
    used to classify as MEETS (a disjoint relation) even though
    ``intersects`` says the pair shares time.
    """

    def test_instant_at_start_starts(self):
        assert relate(iv(1, 1), iv(1, 4)) is IntervalRelation.STARTS
        assert relate(iv(1, 4), iv(1, 1)) is IntervalRelation.STARTED_BY

    def test_instant_inside_is_during(self):
        assert relate(iv(2, 2), iv(1, 4)) is IntervalRelation.DURING
        assert relate(iv(1, 4), iv(2, 2)) is IntervalRelation.CONTAINS

    def test_instant_at_end_is_met_by(self):
        # [1, 4) does not present time 4, so the pair is disjoint and
        # adjacent: the instant is met by the interval.
        assert relate(iv(4, 4), iv(1, 4)) is IntervalRelation.MET_BY
        assert relate(iv(1, 4), iv(4, 4)) is IntervalRelation.MEETS

    def test_equal_instants(self):
        assert relate(iv(3, 3), iv(3, 3)) is IntervalRelation.EQUAL

    def test_adjacent_instants(self):
        assert relate(iv(1, 1), iv(2, 2)) is IntervalRelation.BEFORE
        assert relate(iv(2, 2), iv(1, 1)) is IntervalRelation.AFTER

    @pytest.mark.parametrize("a,b", [
        (iv(1, 1), iv(1, 4)), (iv(2, 2), iv(1, 4)), (iv(4, 4), iv(1, 4)),
        (iv(0, 0), iv(1, 4)), (iv(3, 3), iv(3, 3)), (iv(0, 2), iv(2, 5)),
    ])
    def test_relate_agrees_with_intersects(self, a, b):
        disjoint = {
            IntervalRelation.BEFORE, IntervalRelation.AFTER,
            IntervalRelation.MEETS, IntervalRelation.MET_BY,
        }
        assert (relate(a, b) in disjoint) == (not a.intersects(b))
        assert relate(a, b).inverse is relate(b, a)
