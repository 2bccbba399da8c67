"""Reference kernel, planner and admission: the engine code the library
replaced.

The library's :mod:`repro.engine.kernel` keeps time as whole ticks of
one frequency and rescales when a time arrives off that timebase. This
is the loop it replaced, kept as the oracle: every heap key is the
event's exact ``Rational`` time, the clock is a ``Rational``, and a
session machine schedules the ``Rational`` durations its stepper
yields. Property tests hold the library to it event for event.

:func:`plan_interpretation` is the per-sequence placement loop that
planned an :class:`~repro.core.interpretation.Interpretation` before the
player had one planner for interpretations and compositions; the
planner must return its reads exactly.

:func:`admit` and :func:`capacity` are admission on exact rationals, as
``VodServer`` and ``Fleet`` decided it before their loads became int
units of one scale: a session needing ``rate`` fits beside ``load`` iff
``(load + rate) * margin <= bandwidth``. The int loop must admit and
reject the same requests, in order, and report the same capacities.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

from repro.core.rational import Rational, as_rational
from repro.engine.player import _PlannedRead
from repro.errors import (
    EngineError,
    MediaModelError,
    ResourceError,
    SimulatedCrash,
)


class ReferenceClock:
    """A forward-only clock on exact rational seconds."""

    def __init__(self, start=0):
        self._now = as_rational(start)

    def now(self) -> Rational:
        return self._now

    def advance_to(self, at) -> Rational:
        at = as_rational(at)
        if at < self._now:
            raise EngineError(
                f"clock cannot run backwards: at {self._now}, asked "
                f"for {at}"
            )
        self._now = at
        return self._now


class ReferenceLoop:
    """Events fire in ``(time, insertion order)`` order; heap entries
    are ``(time, seq, callback, args)`` with an exact ``Rational``
    time."""

    def __init__(self, clock: ReferenceClock | None = None):
        self.clock = clock if clock is not None else ReferenceClock()
        self._heap: list[tuple[Rational, int, Callable, tuple]] = []
        self._seq = 0
        self.events_processed = 0
        self.peak_pending = 0

    @property
    def pending(self) -> int:
        return len(self._heap)

    def at(self, when, callback: Callable, *args) -> int:
        when = as_rational(when)
        if when < self.clock.now():
            raise EngineError(
                f"cannot schedule into the past: now {self.clock.now()}, "
                f"asked for {when}"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (when, seq, callback, args))
        self.peak_pending = max(self.peak_pending, len(self._heap))
        return seq

    def after(self, delay, callback: Callable, *args) -> int:
        return self.at(self.clock.now() + as_rational(delay), callback, *args)

    def run(self, until=None) -> int:
        limit = None if until is None else as_rational(until)
        fired = 0
        while self._heap:
            when, _seq, callback, args = self._heap[0]
            if limit is not None and when > limit:
                break
            heapq.heappop(self._heap)
            self.clock.advance_to(when)
            callback(*args)
            fired += 1
            self.events_processed += 1
        return fired

    def stats(self) -> dict[str, Any]:
        return {
            "events_processed": self.events_processed,
            "pending": self.pending,
            "peak_pending": self.peak_pending,
            "now": self.clock.now(),
        }


class ReferenceMachine:
    """A stepper-driven session on the reference loop: one element per
    event, re-scheduled ``Rational`` seconds after the last."""

    def __init__(self, key, loop: ReferenceLoop, *,
                 stepper_factory: Callable[[], Generator],
                 on_complete: Callable[[Any, Any], None] | None = None,
                 on_error: Callable[[Any, MediaModelError],
                                    Generator | None] | None = None):
        self.key = key
        self.loop = loop
        self.result: Any = None
        self.started_at: Rational | None = None
        self.finished_at: Rational | None = None
        self.restarts = 0
        self._stepper_factory = stepper_factory
        self._stepper: Generator | None = None
        self._on_complete = on_complete
        self._on_error = on_error

    def start(self, at) -> None:
        self.loop.at(at, self._begin)

    def _begin(self) -> None:
        self.started_at = self.loop.clock.now()
        self._stepper = self._stepper_factory()
        self.loop.after(0, self._advance)

    def _advance(self) -> None:
        try:
            dt = next(self._stepper)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except SimulatedCrash:
            raise
        except MediaModelError as exc:
            replacement = (None if self._on_error is None
                           else self._on_error(self, exc))
            if replacement is None:
                self._finish(None)
                return
            self.restarts += 1
            self._stepper = replacement
            self.loop.after(0, self._advance)
            return
        self.loop.after(dt, self._advance)

    def _finish(self, result: Any) -> None:
        self.result = result
        self.finished_at = self.loop.clock.now()
        if self._on_complete is not None:
            self._on_complete(self, result)


def plan_interpretation(interpretation) -> list[_PlannedRead]:
    """Every sequence's elements at their placement offsets, deadline
    ``D(start)``, in (deadline, offset) order."""
    reads = []
    for name in interpretation.names():
        sequence = interpretation.sequence(name)
        for entry in sequence:
            reads.append(_PlannedRead(
                label=f"{name}[{entry.element_number}]",
                offset=entry.blob_offset,
                size=entry.size,
                deadline=sequence.time_system.to_continuous(entry.start),
            ))
    reads.sort(key=lambda r: (r.deadline, r.offset))
    return reads


def admits(server, load: Rational, rate: Rational) -> bool:
    """The admission test: a session needing ``rate`` fits beside
    ``load`` when their sum, with margin, fits the bandwidth."""
    return ((load + rate) * as_rational(server.admission_margin)
            <= Rational(server.bandwidth))


def admit(requests, owner) -> tuple[list, list]:
    """Greedy admission: each request, in order, must pass
    :func:`admits` on the server ``owner(title)`` against the load
    already admitted there. Returns (admitted, rejected)."""
    admitted, rejected = [], []
    loads: dict[int, Rational] = {}
    for request in requests:
        server = owner(request.title)
        rate = server.required_rate(request.title)
        load = loads.get(id(server), Rational(0))
        if admits(server, load, rate):
            admitted.append(request)
            loads[id(server)] = load + rate
        else:
            rejected.append(request)
    return admitted, rejected


def capacity(server, title: str) -> int:
    """How many concurrent sessions of ``title`` :func:`admits` takes."""
    rate = server.required_rate(title) * as_rational(server.admission_margin)
    if rate <= 0:
        raise ResourceError(f"{title!r} declares a zero data rate")
    return int(Rational(server.bandwidth) / rate)
