"""Time intervals and Allen's interval algebra.

Temporal composition (Definition 7) expresses "relative timing during
presentation". The classical vocabulary for qualitative relations between
intervals is Allen's thirteen relations; compositions in
:mod:`repro.core.composition` can be queried in these terms, and the
temporal query layer (:mod:`repro.query.temporal`) builds predicates on
them.

Intervals are half-open ``[start, end)`` over exact rational seconds,
matching the convention that an element with start ``s`` and duration
``d`` occupies ``[s, s + d)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.core.rational import Rational, as_rational
from repro.errors import MediaModelError


class IntervalRelation(enum.Enum):
    """Allen's thirteen qualitative relations between two intervals."""

    BEFORE = "before"
    AFTER = "after"
    MEETS = "meets"
    MET_BY = "met_by"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlapped_by"
    STARTS = "starts"
    STARTED_BY = "started_by"
    DURING = "during"
    CONTAINS = "contains"
    FINISHES = "finishes"
    FINISHED_BY = "finished_by"
    EQUAL = "equal"

    @property
    def inverse(self) -> "IntervalRelation":
        """The relation that holds with arguments swapped."""
        return _INVERSES[self]


_INVERSES = {
    IntervalRelation.BEFORE: IntervalRelation.AFTER,
    IntervalRelation.AFTER: IntervalRelation.BEFORE,
    IntervalRelation.MEETS: IntervalRelation.MET_BY,
    IntervalRelation.MET_BY: IntervalRelation.MEETS,
    IntervalRelation.OVERLAPS: IntervalRelation.OVERLAPPED_BY,
    IntervalRelation.OVERLAPPED_BY: IntervalRelation.OVERLAPS,
    IntervalRelation.STARTS: IntervalRelation.STARTED_BY,
    IntervalRelation.STARTED_BY: IntervalRelation.STARTS,
    IntervalRelation.DURING: IntervalRelation.CONTAINS,
    IntervalRelation.CONTAINS: IntervalRelation.DURING,
    IntervalRelation.FINISHES: IntervalRelation.FINISHED_BY,
    IntervalRelation.FINISHED_BY: IntervalRelation.FINISHES,
    IntervalRelation.EQUAL: IntervalRelation.EQUAL,
}


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open time interval ``[start, end)`` in rational seconds."""

    start: Rational
    end: Rational

    def __post_init__(self) -> None:
        start, end = self.start, self.end
        if type(start) is not Rational:
            start = as_rational(start)
            object.__setattr__(self, "start", start)
        if type(end) is not Rational:
            end = as_rational(end)
            object.__setattr__(self, "end", end)
        if end < start:
            raise MediaModelError(f"interval end {end} precedes start {start}")

    @classmethod
    def of(cls, start, duration) -> "Interval":
        """Build from a start and a non-negative duration."""
        start = as_rational(start)
        return cls(start, start + as_rational(duration))

    @property
    def duration(self) -> Rational:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        """True for zero-duration intervals (event-based elements)."""
        return self.start == self.end

    def contains_time(self, t) -> bool:
        """Whether time ``t`` lies in ``[start, end)``.

        An instant interval contains only its own start time, so
        duration-less events are still locatable.
        """
        t = as_rational(t)
        if self.is_instant:
            return t == self.start
        return self.start <= t < self.end

    def intersects(self, other: "Interval") -> bool:
        """Whether the two intervals share any time, instants included:
        equal starts share that instant, and otherwise each interval
        must start before the other ends."""
        return self.start == other.start or (
            self.start < other.end and other.start < self.end)

    def intersection(self, other: "Interval") -> "Interval | None":
        if not self.intersects(other):
            return None
        return Interval(max(self.start, other.start), min(self.end, other.end))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval covering both."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def translate(self, offset) -> "Interval":
        offset = as_rational(offset)
        return Interval(self.start + offset, self.end + offset)

    def scale(self, factor) -> "Interval":
        """Scale both endpoints about time zero by a positive factor."""
        factor = as_rational(factor)
        if factor <= 0:
            raise MediaModelError(f"scale factor must be positive, got {factor}")
        return Interval(self.start * factor, self.end * factor)

    def __str__(self) -> str:
        return f"[{self.start.to_timestamp()}, {self.end.to_timestamp()})"


def relate(a: Interval, b: Interval) -> IntervalRelation:
    """Return the unique Allen relation holding between ``a`` and ``b``.

    The thirteen relations are jointly exhaustive and pairwise disjoint
    over pairs of (possibly zero-length) intervals, and the
    classification agrees with :meth:`Interval.intersects`: a pair lands
    on ``BEFORE``/``AFTER``/``MEETS``/``MET_BY`` exactly when the two
    intervals share no time. Under the half-open convention an instant
    ``[t, t)`` shares time with ``[t, e)`` (it is presented at ``t``),
    so it *starts* that interval; an instant sitting strictly inside is
    ``DURING``; an instant at ``[s, t)``'s end shares nothing and is
    adjacent, hence ``MET_BY``. ``relate(a, b).inverse`` always equals
    ``relate(b, a)``.
    """
    if not a.intersects(b):
        if a.end < b.start:
            return IntervalRelation.BEFORE
        if b.end < a.start:
            return IntervalRelation.AFTER
        if a.end == b.start:
            return IntervalRelation.MEETS
        # Only adjacency at a's start remains: b.end == a.start.
        return IntervalRelation.MET_BY
    if a.start == b.start and a.end == b.end:
        return IntervalRelation.EQUAL
    if a.start == b.start:
        return IntervalRelation.STARTS if a.end < b.end else IntervalRelation.STARTED_BY
    if a.end == b.end:
        return IntervalRelation.FINISHES if a.start > b.start else IntervalRelation.FINISHED_BY
    if b.start < a.start and a.end < b.end:
        return IntervalRelation.DURING
    if a.start < b.start and b.end < a.end:
        return IntervalRelation.CONTAINS
    if a.start < b.start:
        return IntervalRelation.OVERLAPS
    return IntervalRelation.OVERLAPPED_BY


def span(intervals: Iterable[Interval]) -> Interval | None:
    """Smallest interval covering all of ``intervals`` (None if empty)."""
    result: Interval | None = None
    for interval in intervals:
        result = interval if result is None else result.hull(interval)
    return result
