"""Heap-scheduled discrete-event kernel for concurrent serving.

The seed ``VodServer.serve`` stepped each session to completion before
touching the next: one Python loop per session, one private clock each,
and no way to express staggered arrivals or bandwidth that shifts as
sessions come and go. The streaming-server line of work ("Media Objects
in Time") schedules media as *timed events* instead; this module is
that kernel:

* :class:`SimulatedClock` — one shared, monotonic, exact-rational
  clock for a whole serving run (no wall time anywhere);
* :class:`EventLoop` — a binary-heap scheduler: events fire in
  ``(time, insertion order)`` order, callbacks may schedule more
  events, and a :class:`~repro.errors.SimulatedCrash` raised inside a
  callback propagates (the process died mid-event);
* :class:`BandwidthLedger` — per-event bandwidth accounting:
  processor-sharing over the sessions *currently* active, expressed as
  a factor over the nominal equal share so cost models stay unchanged;
* :class:`SessionMachine` — one client session as an event-emitting
  state machine (``PENDING → STREAMING → DONE/FAILED``), driving a
  player stepper one element per event, or a whole-session runner in
  one event when every session arrives at the same instant.

Everything is deterministic: the heap tie-break is insertion order, the
clock is rational, and no event ever consults the machine it runs on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

from repro.core.rational import Rational, as_rational
from repro.errors import EngineError, MediaModelError, SimulatedCrash

__all__ = [
    "BandwidthLedger",
    "EventLoop",
    "SessionMachine",
    "SimulatedClock",
]


class SimulatedClock:
    """A shared, forward-only simulated clock (exact rational seconds)."""

    def __init__(self, start=0):
        self._now = as_rational(start)

    def now(self) -> Rational:
        return self._now

    def advance_to(self, at) -> Rational:
        """Move the clock forward to ``at``; never backwards."""
        at = as_rational(at)
        if at < self._now:
            raise EngineError(
                f"clock cannot run backwards: at {self._now}, asked "
                f"for {at}"
            )
        self._now = at
        return self._now

    def __repr__(self) -> str:
        return f"SimulatedClock(t={self._now})"


class EventLoop:
    """A deterministic heap-scheduled event loop on a simulated clock.

    Events are ``(float(time), time, seq, callback, args)`` heap
    entries; ``seq`` is the global insertion counter, so two events at
    the same instant fire in the order they were scheduled — the
    property the serving path relies on for reproducibility (and for
    playing same-instant sessions in the order they were admitted).

    The leading float is a sort key only, there so that heap sifts
    compare in C rather than through ``Rational``'s Python-level
    operators. ``float()`` of a ``Rational`` is correctly rounded and
    therefore monotone (``a < b`` implies ``float(a) <= float(b)``): a
    differing float settles only pairs whose exact order it agrees
    with, and pairs whose floats tie fall through to the exact time and
    then to ``seq``. Pop order is exactly ``(time, seq)`` order, and the
    float never reaches the clock.
    """

    def __init__(self, clock: SimulatedClock | None = None):
        self.clock = clock if clock is not None else SimulatedClock()
        self._heap: list[tuple[float, Rational, int, Callable, tuple]] = []
        self._seq = 0
        self.events_processed = 0
        self.peak_pending = 0

    @property
    def pending(self) -> int:
        return len(self._heap)

    def at(self, when, callback: Callable, *args) -> int:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        when = as_rational(when)
        if when < self.clock.now():
            raise EngineError(
                f"cannot schedule into the past: now {self.clock.now()}, "
                f"asked for {when}"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (float(when), when, seq, callback, args))
        if len(self._heap) > self.peak_pending:
            self.peak_pending = len(self._heap)
        return seq

    def after(self, delay, callback: Callable, *args) -> int:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        return self.at(self.clock.now() + as_rational(delay), callback, *args)

    def run(self, until=None) -> int:
        """Pop and fire events until the heap drains (or ``until``).

        Returns the number of events processed by this call. Events at
        exactly ``until`` still fire; later ones stay pending. A
        :class:`~repro.errors.SimulatedCrash` from a callback
        propagates immediately — the simulated process died, and the
        remaining heap is the work it lost.
        """
        limit = None if until is None else as_rational(until)
        fired = 0
        while self._heap:
            _key, when, _seq, callback, args = self._heap[0]
            if limit is not None and when > limit:
                break
            heapq.heappop(self._heap)
            self.clock.advance_to(when)
            callback(*args)
            fired += 1
            self.events_processed += 1
        return fired

    def stats(self) -> dict[str, Any]:
        """Deterministic counters for censuses and benchmarks."""
        return {
            "events_processed": self.events_processed,
            "pending": self.pending,
            "peak_pending": self.peak_pending,
            "now": self.clock.now(),
        }

    def __repr__(self) -> str:
        return (
            f"EventLoop(t={self.clock.now()}, pending={self.pending}, "
            f"processed={self.events_processed})"
        )


class BandwidthLedger:
    """Processor-sharing bandwidth accounting over *active* sessions.

    The serving path prices each session's reads with a cost model whose
    bandwidth is the nominal equal share (``total / planned`` — the
    seed's conservative contract). The ledger turns that into per-event
    accounting: while only ``active`` of the ``planned`` sessions are
    concurrently streaming, each active one really sees
    ``total / active``, i.e. the nominal share scaled by
    ``planned / active`` ≥ 1. Steppers ask :meth:`factor` before every
    element read, so a session that outlives its neighbours speeds up
    exactly when they leave. The factor changes only when a session
    enters or leaves, so it is computed there, not on every read.
    """

    def __init__(self, planned: int):
        if planned < 1:
            raise EngineError("ledger needs at least one planned session")
        self.planned = planned
        self.active = 0
        self.peak_active = 0
        self._factor = Rational(planned)

    def enter(self) -> None:
        self.active += 1
        if self.active > self.peak_active:
            self.peak_active = self.active
        self._factor = Rational(self.planned, self.active)

    def leave(self) -> None:
        if self.active <= 0:
            raise EngineError("ledger underflow: leave() without enter()")
        self.active -= 1
        self._factor = Rational(self.planned, max(1, self.active))

    def factor(self) -> Rational:
        """Bandwidth multiplier over the nominal equal share, >= 1."""
        return self._factor

    def __repr__(self) -> str:
        return (
            f"BandwidthLedger({self.active}/{self.planned} active, "
            f"peak {self.peak_active})"
        )


#: Session machine states.
PENDING = "pending"
STREAMING = "streaming"
DONE = "done"
FAILED = "failed"


class SessionMachine:
    """One session as an event-emitting state machine on the loop.

    Two drive modes, chosen by the caller:

    * ``runner`` — a zero-argument callable executing the whole session
      (the coarse granularity). The machine fires it in a single event
      at the session's arrival time. With every arrival at the same
      instant, events pop in insertion order, so sessions run serially
      in admitted order and so do their observability records.
    * ``stepper_factory`` — a zero-argument callable returning a player
      stepper (a generator yielding per-element simulated durations and
      returning the session's report). The machine consumes one element
      per event, re-scheduling itself at ``now + dt``; this is the fine
      granularity under which sessions genuinely interleave and the
      :class:`BandwidthLedger` can re-price bandwidth per event.

    ``on_error`` (fine granularity only) is called with a
    :class:`~repro.errors.MediaModelError` the stepper raised; it may
    return a replacement stepper (the server's degraded-fallback
    replay) to restart with, or None to fail the session. A
    :class:`~repro.errors.SimulatedCrash` always propagates — that is
    the machine dying, not a storage fault.
    """

    def __init__(self, key, loop: EventLoop, *,
                 runner: Callable[[], Any] | None = None,
                 stepper_factory: Callable[[], Generator] | None = None,
                 ledger: BandwidthLedger | None = None,
                 on_start: Callable[["SessionMachine"], None] | None = None,
                 on_complete: Callable[["SessionMachine", Any], None] | None = None,
                 on_error: Callable[["SessionMachine", MediaModelError],
                                    Generator | None] | None = None):
        if (runner is None) == (stepper_factory is None):
            raise EngineError(
                "SessionMachine needs exactly one of runner= or "
                "stepper_factory="
            )
        self.key = key
        self.loop = loop
        self.state = PENDING
        self.result: Any = None
        self.started_at: Rational | None = None
        self.finished_at: Rational | None = None
        self.restarts = 0
        self._runner = runner
        self._scheduled = False
        self._stepper_factory = stepper_factory
        self._stepper: Generator | None = None
        self._ledger = ledger
        self._on_start = on_start
        self._on_complete = on_complete
        self._on_error = on_error

    # -- scheduling ------------------------------------------------------------

    def start(self, at) -> None:
        """Schedule the session's first event at its arrival time."""
        if self._scheduled:
            raise EngineError(f"session {self.key!r} already started")
        self._scheduled = True
        self.loop.at(at, self._begin)

    def _begin(self) -> None:
        self.state = STREAMING
        self.started_at = self.loop.clock.now()
        if self._ledger is not None:
            self._ledger.enter()
        if self._on_start is not None:
            self._on_start(self)
        if self._runner is not None:
            try:
                result = self._runner()
            except SimulatedCrash:
                raise
            self._finish(result)
            return
        self._stepper = self._stepper_factory()
        # Schedule the first element rather than stepping inline, so
        # every same-instant arrival enters the ledger before any of
        # them prices a read.
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
            self._handle_error(exc)
            return
        self.loop.after(dt, self._advance)

    def _handle_error(self, exc: MediaModelError) -> None:
        replacement = None
        if self._on_error is not None:
            replacement = self._on_error(self, exc)
        if replacement is None:
            self._fail()
            return
        self.restarts += 1
        self._stepper = replacement
        self.loop.after(0, self._advance)

    def _finish(self, result: Any) -> None:
        self.state = DONE if result is not None else FAILED
        self.result = result
        self.finished_at = self.loop.clock.now()
        if self._ledger is not None:
            self._ledger.leave()
        if self._on_complete is not None:
            self._on_complete(self, result)

    def _fail(self) -> None:
        self._finish(None)

    def __repr__(self) -> str:
        return f"SessionMachine({self.key!r}, {self.state})"
