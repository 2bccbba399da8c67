"""Heap-scheduled discrete-event kernel for concurrent serving.

The seed ``VodServer.serve`` stepped each session to completion before
touching the next: one Python loop per session, one private clock each,
and no way to express staggered arrivals or bandwidth that shifts as
sessions come and go. The streaming-server line of work ("Media Objects
in Time") schedules media as *timed events* instead; this module is
that kernel:

* :class:`SimulatedClock` — one shared, monotonic clock for a whole
  serving run (no wall time anywhere), counting whole ticks of one
  frequency: Def. 2's ``D_f : i -> i/f`` as the serve's timebase;
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

Everything is deterministic and exact: the heap tie-break is insertion
order, every scheduled time is an int of ticks of the one frequency a
loop is built at (a caller fixes one on which every time it will see is
whole), a time leaves the loop as an exact ``Rational``, and no event
ever consults the machine it runs on.
"""

from __future__ import annotations

import heapq
from math import lcm
from typing import Any, Callable, Generator

from repro.core.rational import Rational, as_rational
from repro.core.time_system import to_ticks
from repro.errors import EngineError, MediaModelError, SimulatedCrash

__all__ = [
    "BandwidthLedger",
    "EventLoop",
    "SessionMachine",
    "SimulatedClock",
]


class SimulatedClock:
    """A shared, forward-only simulated clock: ``ticks`` whole ticks of
    ``frequency`` per second, read as an exact ``Rational`` (built again
    only once the clock has moved)."""

    def __init__(self, start=0):
        start = as_rational(start)
        self.ticks, self.frequency = start.numerator, start.denominator
        self._read = (self.ticks, self.frequency, start)

    def now(self) -> Rational:
        ticks, frequency, now = self._read
        if ticks != self.ticks or frequency != self.frequency:
            now = Rational(self.ticks, self.frequency)
            self._read = (self.ticks, self.frequency, now)
        return now

    def advance_to(self, at, frequency: int | None = None) -> Rational:
        """Move the clock forward to ``at``; never backwards. It counts
        on in ticks of the least multiple of ``frequency`` (by default
        its own) on which ``at`` is whole."""
        at = as_rational(at)
        if at < self.now():
            raise EngineError(f"clock cannot run backwards: at {self.now()}, "
                              f"asked for {at}")
        self.frequency = lcm(frequency or self.frequency, at.denominator)
        self.ticks = at.numerator * (self.frequency // at.denominator)
        return at

    def __repr__(self) -> str:
        return f"SimulatedClock(t={self.now()})"


class EventLoop:
    """A deterministic heap-scheduled event loop on a simulated clock.

    Events are ``(ticks, seq, callback, args)`` heap entries: an int
    instant on the clock's timebase, then the global insertion counter,
    so two events at the same instant fire in the order they were
    scheduled — the property the serving path relies on for
    reproducibility (and for playing same-instant sessions in the order
    they were admitted).

    ``frequency`` re-bases the clock before the first event (by default
    the clock keeps its own); every event is then scheduled in whole
    ticks of it with :meth:`after_ticks`, so a caller builds the loop
    at a frequency on which every time it will see is whole.
    """

    def __init__(self, clock: SimulatedClock | None = None,
                 frequency: int | None = None):
        self.clock = clock if clock is not None else SimulatedClock()
        if frequency is not None:
            self.clock.advance_to(self.clock.now(), frequency)
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self.events_processed = 0
        self.peak_pending = 0

    @property
    def pending(self) -> int:
        return len(self._heap)

    def after_ticks(self, ticks: int, callback: Callable, *args) -> int:
        """Schedule ``callback(*args)`` ``ticks`` (an int >= 0) ticks on."""
        if ticks.__class__ is not int or ticks < 0:
            raise _unschedulable(ticks)
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (self.clock.ticks + ticks, seq, callback, args))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)
        return seq

    def run(self) -> int:
        """Pop and fire events until the heap drains.

        Returns the number of events processed by this call. A
        :class:`~repro.errors.SimulatedCrash` from a callback
        propagates immediately — the simulated process died, and the
        remaining heap is the work it lost.

        An entry whose callback is a stepping :class:`SessionMachine`
        resumes its stepper here and re-arms the same entry in place,
        with the next ``seq`` and the yielded ticks on, so the order and
        clock are those of popping it and scheduling a new one.
        """
        heap, clock, pop = self._heap, self.clock, heapq.heappop
        fired = 0
        try:
            while heap:
                ticks, _seq, callback, args = heap[0]
                clock.ticks = ticks
                if callback.__class__ is not SessionMachine:
                    pop(heap)
                    callback(*args)
                else:
                    try:
                        dt = next(callback._stepper)
                    except StopIteration as stop:
                        pop(heap)
                        callback._finish(stop.value)
                    except SimulatedCrash:
                        pop(heap)
                        raise
                    except MediaModelError as exc:
                        pop(heap)
                        callback._handle_error(exc)
                    except BaseException:
                        pop(heap)
                        raise
                    else:
                        if dt.__class__ is not int or dt < 0:
                            pop(heap)
                            raise _unschedulable(dt)
                        seq = self._seq
                        self._seq = seq + 1
                        heapq.heapreplace(heap, (ticks + dt, seq, callback, ()))
                fired += 1
        finally:
            self.events_processed += fired
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


def _unschedulable(ticks) -> EngineError:
    return EngineError(f"cannot schedule {ticks!r} ticks on: not an int or past")


class BandwidthLedger:
    """Processor-sharing bandwidth accounting over *active* sessions.

    The serving path prices each session's reads with a cost model whose
    bandwidth is the nominal equal share (``total / planned`` — the
    seed's conservative contract). The ledger turns that into per-event
    accounting: while only ``active`` of the ``planned`` sessions are
    concurrently streaming, each active one really sees
    ``total / active``, i.e. the nominal share scaled by
    ``planned / active`` ≥ 1 (:meth:`factor`), so a session that
    outlives its neighbours speeds up exactly when they leave. Given
    the share's ``bandwidth`` and the steppers' tick ``frequency`` it
    also keeps ``price``, the int ticks one byte takes at the current
    share. Both change only when a session enters or leaves, so they
    are computed there, not on every read.
    """

    def __init__(self, planned: int, bandwidth=None, frequency: int = 1):
        if planned < 1:
            raise EngineError("ledger needs at least one planned session")
        self.planned = planned
        self.active = 0
        self.peak_active = 0
        self.frequency = frequency
        self._unit = (None if bandwidth is None
                      else to_ticks(1 / (as_rational(bandwidth) * planned), frequency))
        self._reprice()

    def _reprice(self) -> None:
        sharers = max(1, self.active)
        self._factor = Rational(self.planned, sharers)
        self.price = None if self._unit is None else self._unit * sharers

    def enter(self) -> None:
        self.active += 1
        if self.active > self.peak_active:
            self.peak_active = self.active
        self._reprice()

    def leave(self) -> None:
        if self.active <= 0:
            raise EngineError("ledger underflow: leave() without enter()")
        self.active -= 1
        self._reprice()

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
      stepper (a generator yielding per-element durations in int ticks
      of the loop's clock, and returning the session's report). The
      machine is its own heap entry: the loop consumes one element per
      event and re-arms the entry at ``now + dt``; this is the fine
      granularity under which
      sessions genuinely interleave and the :class:`BandwidthLedger` can
      re-price bandwidth per event.

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
            raise EngineError("SessionMachine needs exactly one of runner= or "
                              "stepper_factory=")
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

    def start(self, ticks: int) -> None:
        """Schedule the session's first event ``ticks`` (an int >= 0)
        ticks of the loop's clock from now, with one heap push."""
        if self._scheduled:
            raise EngineError(f"session {self.key!r} already started")
        self._scheduled = True
        self.loop.after_ticks(ticks, self._begin)

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
        self.loop.after_ticks(0, self)

    def _handle_error(self, exc: MediaModelError) -> None:
        replacement = None
        if self._on_error is not None:
            replacement = self._on_error(self, exc)
        if replacement is None:
            self._finish(None)
            return
        self.restarts += 1
        self._stepper = replacement
        self.loop.after_ticks(0, self)

    def _finish(self, result: Any) -> None:
        self.state = DONE if result is not None else FAILED
        self.result = result
        self.finished_at = self.loop.clock.now()
        if self._ledger is not None:
            self._ledger.leave()
        if self._on_complete is not None:
            self._on_complete(self, result)

    def __repr__(self) -> str:
        return f"SessionMachine({self.key!r}, {self.state})"
