"""Property-based tests for the interval algebra.

Allen's thirteen relations must be jointly exhaustive and pairwise
disjoint (JEPD) over *all* interval pairs — zero-length instants
included — and the classification must agree with
``Interval.intersects``: the four disjoint relations (before, after,
meets, met-by) hold exactly when no time is shared. These are the
invariants the ``relate`` instant-handling fix restored.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import Interval, IntervalRelation, relate
from repro.core.rational import Rational

DISJOINT_RELATIONS = {
    IntervalRelation.BEFORE,
    IntervalRelation.AFTER,
    IntervalRelation.MEETS,
    IntervalRelation.MET_BY,
}

rationals = st.builds(
    Rational, st.integers(-48, 48), st.integers(1, 6),
)

intervals = st.tuples(rationals, rationals).map(
    lambda pair: Interval(min(pair), max(pair))
)

# A pool with many coincident endpoints, so equal-start / equal-end /
# adjacent / instant configurations are common rather than vanishing.
coarse_intervals = st.tuples(
    st.integers(0, 6), st.integers(0, 6),
).map(lambda pair: Interval(min(pair), max(pair)))


def four_branch_intersects(a: Interval, b: Interval) -> bool:
    """``Interval.intersects`` as it was, one branch per instant case.

    The oracle the one-rule definition is held to: an instant shares
    time with what contains its time point (or with an equal instant).
    """
    if a.is_instant:
        return b.contains_time(a.start) or a == b
    if b.is_instant:
        return a.contains_time(b.start)
    return a.start < b.end and b.start < a.end


instants = rationals.map(lambda t: Interval(t, t))


@st.composite
def shared_starts(draw):
    """Two intervals with one start, either or both of them instants."""
    start = draw(rationals)
    ends = [start + draw(st.sampled_from([0, Rational(1, 3), 1, 2]))
            for _ in range(2)]
    return Interval(start, ends[0]), Interval(start, ends[1])


def semantic_relation(a: Interval, b: Interval) -> IntervalRelation:
    """An independent classifier built from endpoint trichotomies.

    Disjointness is delegated to ``intersects`` (the ground truth for
    "shares time"); within each class the relation follows from the
    (start, end) comparisons alone. Exhaustive and deterministic by
    construction, so agreement with ``relate`` proves JEPD.
    """
    if not a.intersects(b):
        # At most one adjacency can hold here: a.end == b.start and
        # b.end == a.start together force four equal endpoints, i.e.
        # equal instants — which intersect and never reach this branch.
        if a.end == b.start:
            return IntervalRelation.MEETS
        if b.end == a.start:
            return IntervalRelation.MET_BY
        return (IntervalRelation.BEFORE if a.end < b.start
                else IntervalRelation.AFTER)
    if a.start == b.start:
        if a.end == b.end:
            return IntervalRelation.EQUAL
        return (IntervalRelation.STARTS if a.end < b.end
                else IntervalRelation.STARTED_BY)
    if a.start < b.start:
        if a.end == b.end:
            return IntervalRelation.FINISHED_BY
        return (IntervalRelation.OVERLAPS if a.end < b.end
                else IntervalRelation.CONTAINS)
    if a.end == b.end:
        return IntervalRelation.FINISHES
    return (IntervalRelation.DURING if a.end < b.end
            else IntervalRelation.OVERLAPPED_BY)


class TestIntersectsRule:
    """``intersects`` is one rule; it must equal the four-branch oracle."""

    pairs = st.one_of(
        st.tuples(st.one_of(intervals, instants, coarse_intervals),
                  st.one_of(intervals, instants, coarse_intervals)),
        shared_starts(),
    )

    @given(pairs)
    def test_one_rule_matches_the_four_branch_oracle(self, pair):
        a, b = pair
        assert a.intersects(b) is four_branch_intersects(a, b)
        assert b.intersects(a) is four_branch_intersects(b, a)

    def test_every_pair_on_a_grid_of_halves(self):
        """Exhaustively: instants, shared starts and shared ends."""
        points = [Rational(n, 2) for n in range(-2, 5)]
        grid = [Interval(s, e) for s in points for e in points if s <= e]
        for a in grid:
            for b in grid:
                assert a.intersects(b) is four_branch_intersects(a, b)


class TestRelateProperties:
    @given(intervals, intervals)
    def test_matches_independent_classifier(self, a, b):
        assert relate(a, b) is semantic_relation(a, b)

    @given(coarse_intervals, coarse_intervals)
    def test_matches_classifier_on_coincident_endpoints(self, a, b):
        assert relate(a, b) is semantic_relation(a, b)

    @given(intervals, intervals)
    def test_inverse_consistency(self, a, b):
        assert relate(a, b).inverse is relate(b, a)

    @given(coarse_intervals, coarse_intervals)
    def test_inverse_consistency_on_coincident_endpoints(self, a, b):
        assert relate(a, b).inverse is relate(b, a)

    @given(intervals, intervals)
    def test_agrees_with_intersects(self, a, b):
        """The headline fix: disjoint relations iff no shared time."""
        assert (relate(a, b) in DISJOINT_RELATIONS) == (not a.intersects(b))

    @given(coarse_intervals, coarse_intervals)
    def test_agrees_with_intersects_on_coincident_endpoints(self, a, b):
        assert (relate(a, b) in DISJOINT_RELATIONS) == (not a.intersects(b))

    @given(intervals, intervals)
    def test_equal_iff_identical(self, a, b):
        assert (relate(a, b) is IntervalRelation.EQUAL) == (a == b)

    @given(intervals)
    def test_reflexive(self, a):
        assert relate(a, a) is IntervalRelation.EQUAL

    @given(coarse_intervals, st.integers(0, 6))
    def test_instant_against_interval(self, a, t):
        """An instant relates consistently with where its point sits."""
        instant = Interval(Rational(t), Rational(t))
        rel = relate(instant, a)
        if a.contains_time(t) or instant == a:
            assert rel not in DISJOINT_RELATIONS
        else:
            assert rel in DISJOINT_RELATIONS
