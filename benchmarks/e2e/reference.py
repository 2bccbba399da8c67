"""Reads host time at a fixed reference speed, from a task sampled while
the benchmark measures.

The benchmark shares its machine with other tenants, and their load
changes the machine's speed on two time scales: through episodes a
minute or more long the same work runs up to twice as slowly from the
first second of a run to its last, and in between, bursts come and go
within a second. Raw host times cannot tell a slow program from a slow
machine.

So while the runner measures, a ``SIGALRM`` timer interrupts it every
``INTERVAL_S`` of wall time, and the handler times one pass of a fixed
task. The task is the kind of work the program does most: exact-fraction
arithmetic on small Python objects, here with a class of its own and
``math.gcd``, never the program's code, so no change to the program
moves it. A host time between two instants is multiplied by the mean,
over the passes between them, of ``REFERENCE_NS`` over the pass. That
reads it at the speed where one pass takes exactly ``REFERENCE_NS``,
about the speed of a quiet stretch of the machine the benchmark was
built on. A pass samples the speed of the ``INTERVAL_S`` around it, so
the mean of the ratios weights each stretch by the work done in it.

The handler's own time is not the program's: :func:`sampling_ns` lets a
timer take it out of what it measured.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left
from math import gcd
from time import perf_counter_ns

#: Host time of one pass at the reference speed.
REFERENCE_NS = 100_000
#: Fraction additions in one pass, about 0.1 ms on a quiet stretch.
STEPS = 140
#: Wall time between two passes; the passes cost about 1% of it.
INTERVAL_S = 0.01

_spent_ns = 0


class _Fraction:
    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        g = gcd(n, d)
        self.n = n // g
        self.d = d // g

    def __add__(self, other: "_Fraction") -> "_Fraction":
        return _Fraction(self.n * other.d + other.n * self.d,
                         self.d * other.d)

    def __lt__(self, other: "_Fraction") -> bool:
        return self.n * other.d < other.n * self.d


def _task() -> int:
    clock, tick = _Fraction(0, 1), _Fraction(1, 25)
    late = []
    for i in range(STEPS):
        clock = clock + tick
        if clock < _Fraction(i, 7):
            late.append(clock)
    return len(late)


def sampling_ns() -> int:
    """Host time spent in passes so far, handler included."""
    return _spent_ns


class SpeedSampler:
    """Times one pass every ``INTERVAL_S`` while active, as a context
    manager, and reads host times at the reference speed."""

    def __init__(self):
        #: Start of each pass, and its host time, in ns.
        self.starts: list[int] = []
        self.passes: list[int] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        global _spent_ns
        start = perf_counter_ns()
        # The collector stays out of the pass, so that the program's
        # heap does not enter the reading.
        enabled = gc.isenabled()
        gc.disable()
        try:
            _task()
            self.passes.append(perf_counter_ns() - start)
            self.starts.append(start)
        finally:
            if enabled:
                gc.enable()
            _spent_ns += perf_counter_ns() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Multiplier that reads host time spent between two
        ``perf_counter_ns`` instants at the reference speed; from the
        nearest pass if none fell between them."""
        if not self.passes:
            raise RuntimeError("no reference pass was sampled")
        low = bisect_left(self.starts, start_ns)
        high = bisect_left(self.starts, end_ns)
        if low == high:
            low = min(low, len(self.passes) - 1)
            high = low + 1
        window = self.passes[low:high]
        return sum(REFERENCE_NS / p for p in window) / len(window)
