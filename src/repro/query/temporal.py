"""Temporal predicates over multimedia compositions.

Queries in the style of "what is on screen while the narration plays":
Allen-relation filters over a multimedia object's timeline (Definition 7
plus the interval algebra of :mod:`repro.core.intervals`).

Every predicate here walks the timeline: this is the linear backend.
:class:`~repro.query.database.MediaDatabase` routes a query either here
or, for a catalog built with ``index=True``, to the indexed relations
of :class:`~repro.query.index.TemporalIndex`; both give the same
answers in the same order.
"""

from __future__ import annotations

from repro.core.composition import MultimediaObject
from repro.core.intervals import Interval
from repro.core.rational import as_rational
from repro.errors import QueryError


def components_overlapping(multimedia: MultimediaObject,
                           label: str) -> list[str]:
    """Labels of components sharing any presentation time with ``label``."""
    target = _interval_of(multimedia, label)
    result = []
    for other_label, interval in multimedia.timeline():
        if other_label == label:
            continue
        if interval.intersects(target):
            result.append(other_label)
    return result


def components_during(multimedia: MultimediaObject, start, end) -> list[str]:
    """Labels of components presented (at least partly) within [start, end)."""
    window = Interval(as_rational(start), as_rational(end))
    return [
        label for label, interval in multimedia.timeline()
        if interval.intersects(window)
    ]


def _interval_of(multimedia: MultimediaObject, label: str) -> Interval:
    for other_label, interval in multimedia.timeline():
        if other_label == label:
            return interval
    raise QueryError(f"{multimedia.name!r} has no component {label!r}")
