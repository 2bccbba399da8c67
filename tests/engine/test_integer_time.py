"""Exact counts: the hot paths keep time on int ticks, not ``Rational``.

Def. 2 makes a time an integer index at a frequency. Planning a
recorded title, stepping a clean session under a ledger and scraping an
idle loop each stay on ints until a time leaves the engine, so each
does no ``Rational`` arithmetic at all: those counts are 0, and any
operator call that comes back is a regression the fast paths no longer
hide. A burn-rate alert evaluation, which turns each rule window into a
time span, does one subtraction per distinct window.
"""

from collections import Counter
from math import lcm

import pytest

from repro.core.rational import Rational
from repro.engine.kernel import BandwidthLedger, EventLoop
from repro.engine.player import CostModel, Player
from repro.obs import Observability
from repro.obs.telemetry import (
    AlertManager,
    Telemetry,
    TelemetryStore,
    default_burn_rate_rules,
)
from tests.engine.test_planner import record

#: Every arithmetic operator ``Rational`` has, its own or ``Fraction``'s.
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
    "__rpow__", "__neg__", "__pos__", "__abs__",
)


@pytest.fixture
def arithmetic(monkeypatch):
    """A counter of ``Rational`` arithmetic operator calls, by name."""
    calls = Counter()

    def counted(name, method):
        def operator(*args):
            calls[name] += 1
            return method(*args)
        return operator

    for name in ARITHMETIC:
        monkeypatch.setattr(Rational, name, counted(name, getattr(Rational, name)))
    assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)
    assert calls == {"__add__": 1}
    calls.clear()
    return calls


@pytest.fixture(scope="module")
def title():
    return record()


def test_planning_a_recorded_title_does_no_arithmetic(title, arithmetic):
    reads = Player().plan_interpretation(title)
    assert len(reads) == 50
    assert sum(arithmetic.values()) == 0, arithmetic


def test_a_clean_stepped_session_does_no_arithmetic(title, arithmetic):
    """A session stepped under a ledger, on the plan's cached deadlines
    at the ledger's frequency, as a read-granularity batch steps it."""
    bandwidth = 400_000
    player = Player(CostModel(bandwidth=bandwidth))
    reads = player.plan_interpretation(title)
    deadlines = player.deadlines(reads)
    frequency = lcm(deadlines.frequency, *(t.denominator for t in player.prices()))
    deadlines = deadlines.at(frequency)
    ledger = BandwidthLedger(1, bandwidth, frequency)
    ledger.enter()
    arithmetic.clear()  # the set-up is once per batch, not per session
    stepper = player.stepper(reads, ledger, None, deadlines)
    steps = 0
    while True:
        try:
            next(stepper)
            steps += 1
        except StopIteration as stop:
            report = stop.value
            break
    assert steps == len(reads)
    assert report.element_count == len(reads)
    assert sum(arithmetic.values()) == 0, arithmetic


def test_idle_scrapes_do_no_arithmetic(arithmetic):
    obs = Observability()
    obs.metrics.counter("work.items").inc()
    loop = EventLoop(frequency=4)
    loop.after_ticks(8, lambda: None)
    telemetry = Telemetry(interval=Rational(1, 2), rules=())
    telemetry.attach(loop, obs, "idle")
    loop.run()
    # Scrapes at 1/2, 1 and 3/2 see the work pending; the one at 2 fires
    # after it and is the last.
    assert telemetry.store.scrape_count == 4
    assert sum(arithmetic.values()) == 0, arithmetic


def test_an_alert_evaluation_subtracts_once_per_rule_window(arithmetic):
    """The stock rules read four windowed deltas over two windows, 1 s
    and 4 s: one evaluation computes each window's start once."""
    obs = Observability()
    store = TelemetryStore()
    for second in range(1, 6):
        obs.metrics.counter("engine.play.elements").inc(10)
        obs.metrics.counter("engine.play.underruns").inc()
        obs.metrics.histogram("engine.play.lateness_seconds").observe(0.5)
        store.record_scrape("srv", Rational(second), obs.metrics.snapshot())
    alerts = AlertManager(default_burn_rate_rules(), store)
    assert {rule.short_window for rule in alerts.rules} == {Rational(1)}
    assert {rule.long_window for rule in alerts.rules} == {Rational(4)}
    arithmetic.clear()
    changed = alerts.evaluate("srv", Rational(5))
    assert [alert.state for alert in changed] == ["pending", "pending"]
    assert arithmetic == {"__sub__": 2}, arithmetic
