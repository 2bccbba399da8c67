"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rational import Rational, as_rational
from repro.engine.kernel import (
    DONE,
    FAILED,
    PENDING,
    STREAMING,
    BandwidthLedger,
    EventLoop,
    SessionMachine,
    SimulatedClock,
)
from repro.errors import EngineError, MediaModelError, SimulatedCrash

from tests.engine.reference import ReferenceLoop, ReferenceMachine


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == Rational(0)

    def test_advances_forward(self):
        clock = SimulatedClock()
        assert clock.advance_to(Rational(3, 2)) == Rational(3, 2)
        assert clock.now() == Rational(3, 2)

    def test_never_runs_backwards(self):
        clock = SimulatedClock(start=5)
        with pytest.raises(EngineError, match="backwards"):
            clock.advance_to(4)

    def test_advance_to_now_is_fine(self):
        clock = SimulatedClock(start=5)
        assert clock.advance_to(5) == Rational(5)


class TestEventLoop:
    def test_fires_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.at(3, fired.append, "late")
        loop.at(1, fired.append, "early")
        loop.at(2, fired.append, "middle")
        assert loop.run() == 3
        assert fired == ["early", "middle", "late"]

    def test_same_instant_fires_in_insertion_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("a", "b", "c", "d"):
            loop.at(1, fired.append, tag)
        loop.run()
        assert fired == ["a", "b", "c", "d"]

    def test_callbacks_may_schedule_more_events(self):
        loop = EventLoop()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.after(1, chain, n + 1)

        loop.at(0, chain, 0)
        loop.run()
        assert fired == [0, 1, 2, 3]
        assert loop.clock.now() == Rational(3)

    def test_cannot_schedule_into_the_past(self):
        loop = EventLoop()
        loop.at(2, lambda: None)
        loop.run()
        with pytest.raises(EngineError, match="past"):
            loop.at(1, lambda: None)

    def test_run_until_leaves_later_events_pending(self):
        loop = EventLoop()
        fired = []
        loop.at(1, fired.append, "in")
        loop.at(2, fired.append, "boundary")
        loop.at(3, fired.append, "out")
        assert loop.run(until=2) == 2
        assert fired == ["in", "boundary"]
        assert loop.pending == 1
        loop.run()
        assert fired == ["in", "boundary", "out"]

    def test_times_sharing_a_float_fire_in_exact_order(self):
        loop = EventLoop()
        fired = []
        above_one = Rational(2**53 + 1, 2**53)
        assert float(above_one) == float(Rational(1))
        loop.at(above_one, fired.append, "later")
        loop.at(1, fired.append, "earlier")
        loop.run()
        assert fired == ["earlier", "later"]
        assert loop.clock.now() == above_one

    def test_crash_propagates_and_preserves_heap(self):
        loop = EventLoop()

        def die():
            raise SimulatedCrash("armed")

        loop.at(1, die)
        loop.at(2, lambda: None)
        with pytest.raises(SimulatedCrash):
            loop.run()
        # The survivor event is the work the dead process lost.
        assert loop.pending == 1

    def test_stats_are_deterministic_counters(self):
        loop = EventLoop()
        loop.at(1, lambda: None)
        loop.at(1, lambda: None)
        loop.run()
        stats = loop.stats()
        assert stats["events_processed"] == 2
        assert stats["pending"] == 0
        assert stats["peak_pending"] == 2
        assert stats["now"] == Rational(1)


# Above 1 a double's spacing is 2**-52, so every offset of k / 2**55
# from an integer base rounds to the same float as the base: events a
# float-only heap key could not tell apart, mixed with same-instant ties.
instants = st.builds(
    lambda base, offset: Rational(base) + Rational(offset, 2**55),
    st.integers(1, 3), st.integers(-2, 2),
)


class Ticks:
    """The library kernel: int ticks, rescaled onto each new time."""

    loop = EventLoop

    @staticmethod
    def machine(key, loop, factory, frequency, on_complete):
        return SessionMachine(key, loop, stepper_factory=factory,
                              frequency=frequency, on_complete=on_complete)

    @staticmethod
    def start(machine, when):
        """A machine starts in ticks of the loop's clock: align the loop
        to ``when`` as :meth:`EventLoop.at` does, then count on."""
        when, loop = as_rational(when), machine.loop
        machine.start(when.numerator * loop.align(when.denominator) - loop.clock.ticks)

    @staticmethod
    def step(ticks, frequency):
        return ticks


class Exact:
    """The exact-``Rational`` kernel it replaced (``reference.py``)."""

    loop = ReferenceLoop

    @staticmethod
    def machine(key, loop, factory, frequency, on_complete):
        return ReferenceMachine(key, loop, stepper_factory=factory,
                                on_complete=on_complete)

    @staticmethod
    def start(machine, when):
        machine.start(when)

    @staticmethod
    def step(ticks, frequency):
        return Rational(ticks, frequency)


#: A stepper's step that raises instead of yielding.
CRASH_STEP = -1


def drive(kernel, schedule, cuts):
    """Run ``schedule`` on a fresh loop of ``kernel`` and log what it did.

    ``schedule`` holds ``("at", when, label)``, ``("after", delay,
    label)``, ``("spawn", when, delay, label)`` (at ``when``, schedule
    ``label + "'"`` ``delay`` later: a time that arrives mid-run),
    ``("crash", when, label)`` and ``("machine", when, frequency,
    steps, label)`` (a session stepping ``steps`` ticks of
    ``frequency``; a ``CRASH_STEP`` raises :class:`SimulatedCrash`).
    The loop runs to each of ``cuts`` and then to the end, and resumes
    after every crash. The log holds each callback and step with the
    clock at it, each run's count, each crash and the stats after each
    run.
    """
    loop = kernel.loop()
    log = []

    def fire(label):
        log.append((label, loop.clock.now()))

    def spawn(label, delay):
        fire(label)
        loop.after(delay, fire, label + "'")

    def crash(label):
        fire(label)
        raise SimulatedCrash(label)

    def steps(label, frequency, durations):
        def gen():
            for ticks in durations:
                log.append((label, "step", loop.clock.now()))
                if ticks == CRASH_STEP:
                    raise SimulatedCrash(label)
                yield kernel.step(ticks, frequency)
            return label
        return gen

    def complete(machine, result):
        log.append((result, machine.started_at, machine.finished_at))

    for kind, *args in schedule:
        label = args[-1]
        if kind == "at":
            loop.at(args[0], fire, label)
        elif kind == "after":
            loop.after(args[0], fire, label)
        elif kind == "spawn":
            loop.at(args[0], spawn, label, args[1])
        elif kind == "crash":
            loop.at(args[0], crash, label)
        else:
            when, frequency, durations = args[:3]
            kernel.start(kernel.machine(label, loop, steps(label, frequency, durations),
                                        frequency, complete), when)
    for cut in [*cuts, None]:
        while True:
            try:
                log.append(("ran", loop.run(until=cut)))
                break
            except SimulatedCrash as crashed:
                log.append(("crashed", str(crashed)))
        log.append(("stats", loop.stats()))
    return log


@settings(max_examples=200)
@given(times=st.lists(instants, min_size=1, max_size=30), cut=instants)
def test_pop_order_is_exact_time_then_insertion(times, cut):
    loop = EventLoop()
    fired = []
    # Labels count down, so a heap that lost the insertion counter would
    # break same-instant ties by label, the wrong way round.
    labels = [len(times) - i for i in range(len(times))]
    for when, label in zip(times, labels):
        loop.at(when, fired.append, label)
    order = sorted(range(len(times)), key=lambda i: (times[i], i))
    expected = [labels[i] for i in order]
    early = sum(1 for when in times if when <= cut)
    assert loop.run(until=cut) == early
    assert fired == expected[:early]
    assert loop.pending == len(times) - early
    loop.run()
    assert fired == expected
    assert loop.clock.now() == max(times)
    schedule = [("at", when, label) for when, label in zip(times, labels)]
    assert drive(Ticks, schedule, [cut]) == drive(Exact, schedule, [cut])


denominators = st.sampled_from([1, 2, 3, 4, 7, 12, 1000, 1001, 30000, 2**55])
moments = st.builds(
    lambda whole, part, denominator: Rational(whole)
    + Rational(part, denominator),
    st.integers(0, 3), st.integers(0, 5), denominators,
)
operations = st.one_of(
    st.tuples(st.just("at"), moments),
    st.tuples(st.just("after"), moments),
    st.tuples(st.just("spawn"), moments, moments),
    st.tuples(st.just("crash"), moments),
    st.tuples(st.just("machine"), moments,
              st.sampled_from([1, 2, 3, 25, 1000, 30000]),
              st.lists(st.integers(CRASH_STEP, 6), max_size=8)),
)


@settings(max_examples=200, deadline=None)
@given(drawn=st.lists(operations, min_size=1, max_size=20),
       cuts=st.lists(moments, max_size=3))
def test_ticks_keep_the_rational_kernels_order_and_clock(drawn, cuts):
    """Mixed denominators, times that arrive mid-run (so the loop
    rescales while machines are stepping), ``run(until=...)`` cuts and
    crashes: the tick kernel fires the same callbacks in the same order
    as the exact-``Rational`` reference, with the same ``clock.now()``
    at each, and ends each run with the same stats."""
    schedule = [(*op, f"e{i}") for i, op in enumerate(drawn)]
    assert drive(Ticks, schedule, cuts) == drive(Exact, schedule, cuts)


class TestBandwidthLedger:
    def test_factor_is_planned_over_active(self):
        ledger = BandwidthLedger(4)
        ledger.enter()
        assert ledger.factor() == Rational(4, 1)
        ledger.enter()
        assert ledger.factor() == Rational(2, 1)
        ledger.leave()
        assert ledger.factor() == Rational(4, 1)

    def test_peak_active_tracks_high_water(self):
        ledger = BandwidthLedger(3)
        ledger.enter()
        ledger.enter()
        ledger.leave()
        ledger.enter()
        assert ledger.peak_active == 2

    def test_underflow_rejected(self):
        ledger = BandwidthLedger(1)
        with pytest.raises(EngineError, match="underflow"):
            ledger.leave()

    def test_needs_a_planned_session(self):
        with pytest.raises(EngineError):
            BandwidthLedger(0)

    @given(planned=st.integers(1, 8),
           moves=st.lists(st.booleans(), max_size=40))
    def test_factor_tracks_every_enter_and_leave(self, planned, moves):
        ledger = BandwidthLedger(planned)
        active = 0
        for entering in moves:
            if entering:
                ledger.enter()
                active += 1
            elif active:
                ledger.leave()
                active -= 1
            else:
                with pytest.raises(EngineError, match="underflow"):
                    ledger.leave()
            assert ledger.active == active
            assert ledger.factor() == Rational(planned, max(1, active))


def counting_stepper(durations, result="report"):
    """A stepper yielding ``durations`` as int ticks of its machine's
    frequency and returning ``result``."""
    def factory():
        def gen():
            yield from durations
            return result
        return gen()
    return factory


class TestSessionMachine:
    def test_needs_exactly_one_drive_mode(self):
        loop = EventLoop()
        with pytest.raises(EngineError, match="exactly one"):
            SessionMachine("s", loop)
        with pytest.raises(EngineError, match="exactly one"):
            SessionMachine(
                "s", loop, runner=lambda: None,
                stepper_factory=counting_stepper([]),
            )

    def test_runner_mode_runs_whole_session_in_one_event(self):
        loop = EventLoop()
        machine = SessionMachine("s", loop, runner=lambda: "done")
        machine.start(2)
        assert machine.state == PENDING
        loop.run()
        assert machine.state == DONE
        assert machine.result == "done"
        assert machine.started_at == Rational(2)
        assert loop.events_processed == 1

    def test_runner_none_result_fails_session(self):
        loop = EventLoop()
        machine = SessionMachine("s", loop, runner=lambda: None)
        machine.start(0)
        loop.run()
        assert machine.state == FAILED

    def test_stepper_mode_advances_one_element_per_event(self):
        loop = EventLoop()
        machine = SessionMachine(
            "s", loop, stepper_factory=counting_stepper([1, 2, 3]),
        )
        machine.start(0)
        loop.run()
        assert machine.state == DONE
        assert machine.result == "report"
        assert machine.finished_at == Rational(6)
        # begin + first-advance + one event per element.
        assert loop.events_processed == 5

    def test_stepper_ticks_count_at_the_machines_frequency(self):
        loop = EventLoop(frequency=3)
        machine = SessionMachine(
            "s", loop, stepper_factory=counting_stepper([1, 2, 3]),
            frequency=4,
        )
        machine.start(1)
        loop.run()
        assert machine.finished_at == Rational(1, 3) + Rational(6, 4)
        assert loop.clock.frequency == 12

    def test_stepper_must_yield_int_ticks(self):
        loop = EventLoop()
        SessionMachine(
            "s", loop, stepper_factory=counting_stepper([Rational(1, 2)]),
        ).start(0)
        with pytest.raises(EngineError, match="not an int"):
            loop.run()

    @pytest.mark.parametrize("bad", [-1, 0.5])
    def test_bad_yield_raises_and_leaves_only_the_other_work(self, bad):
        loop = EventLoop()
        SessionMachine(
            "s", loop, stepper_factory=counting_stepper([2, bad]),
        ).start(0)
        loop.at(5, lambda: None)
        with pytest.raises(EngineError, match="not an int or past"):
            loop.run()
        # begin, first step: the failed step fired no event and its
        # entry is gone; the survivor is the lost work.
        assert loop.pending == 1
        assert loop.events_processed == 2
        assert loop.clock.now() == Rational(2)
        assert loop.stats()["peak_pending"] == 2

    def test_stepper_crash_leaves_only_the_other_work(self):
        loop = EventLoop()

        def dying():
            def gen():
                yield 1
                raise SimulatedCrash("armed")
            return gen()

        machine = SessionMachine("s", loop, stepper_factory=dying)
        machine.start(0)
        loop.at(3, lambda: None)
        with pytest.raises(SimulatedCrash):
            loop.run()
        assert loop.pending == 1
        assert loop.events_processed == 2
        assert machine.state == STREAMING
        assert loop.run() == 1
        assert machine.state == STREAMING

    def test_two_sessions_interleave_on_one_clock(self):
        loop = EventLoop()
        order = []

        def tracked(key, durations):
            def factory():
                def gen():
                    for d in durations:
                        order.append((key, loop.clock.now()))
                        yield d
                    return key
                return gen()
            return factory

        a = SessionMachine("a", loop, stepper_factory=tracked("a", [2, 2]))
        b = SessionMachine("b", loop, stepper_factory=tracked("b", [3]))
        a.start(0)
        b.start(0)
        loop.run()
        assert order == [
            ("a", Rational(0)), ("b", Rational(0)), ("a", Rational(2)),
        ]
        assert a.finished_at == Rational(4)
        assert b.finished_at == Rational(3)

    def test_ledger_entered_before_any_element_prices(self):
        loop = EventLoop()
        ledger = BandwidthLedger(2)
        factors = []

        def factory():
            def gen():
                factors.append(ledger.factor())
                yield 1
                return "ok"
            return gen()
        for key in ("a", "b"):
            SessionMachine(
                key, loop, stepper_factory=factory, ledger=ledger,
            ).start(0)
        loop.run()
        # Both arrivals at t=0 enter before either prices a read.
        assert factors == [Rational(1), Rational(1)]
        assert ledger.active == 0
        assert ledger.peak_active == 2

    def test_on_error_replacement_stepper_restarts(self):
        loop = EventLoop()

        def broken():
            def gen():
                yield 1
                raise MediaModelError("storage gave out")
            return gen()

        def on_error(machine, exc):
            return counting_stepper([1], result="fallback")()

        machine = SessionMachine(
            "s", loop, stepper_factory=broken, on_error=on_error,
        )
        machine.start(0)
        loop.run()
        assert machine.state == DONE
        assert machine.result == "fallback"
        assert machine.restarts == 1

    def test_on_error_none_fails_session(self):
        loop = EventLoop()

        def broken():
            def gen():
                raise MediaModelError("dead")
                yield  # pragma: no cover
            return gen()

        machine = SessionMachine(
            "s", loop, stepper_factory=broken,
            on_error=lambda machine, exc: None,
        )
        machine.start(0)
        loop.run()
        assert machine.state == FAILED
        assert machine.result is None

    def test_crash_always_propagates(self):
        loop = EventLoop()

        def dying():
            def gen():
                raise SimulatedCrash("armed")
                yield  # pragma: no cover
            return gen()

        SessionMachine(
            "s", loop, stepper_factory=dying,
            on_error=lambda machine, exc: counting_stepper([])(),
        ).start(0)
        with pytest.raises(SimulatedCrash):
            loop.run()

    def test_cannot_start_twice(self):
        loop = EventLoop()
        machine = SessionMachine("s", loop, runner=lambda: "x")
        machine.start(0)
        with pytest.raises(EngineError, match="already started"):
            machine.start(1)

    def test_on_start_and_on_complete_hooks(self):
        loop = EventLoop()
        calls = []
        machine = SessionMachine(
            "s", loop, runner=lambda: "r",
            on_start=lambda m: calls.append(("start", m.state)),
            on_complete=lambda m, result: calls.append(("done", result)),
        )
        machine.start(0)
        loop.run()
        assert calls == [("start", STREAMING), ("done", "r")]
