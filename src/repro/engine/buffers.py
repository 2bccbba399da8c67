"""Buffering: prefetch underrun analysis.

"Playback 'jitter' can be removed by the application just prior to
presentation" (§5) — by buffering. :func:`simulate_prefetch` quantifies
the claim: given element arrival times (from the storage model) and
presentation deadlines, it computes underruns as a function of prefetch
depth; benchmark E7 sweeps the depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rational import Rational
from repro.errors import EngineError


@dataclass
class PrefetchReport:
    """Underrun analysis for one prefetch depth.

    ``high_water`` is the maximum number of elements simultaneously
    buffered (produced but not yet presented) — the actual memory the
    prefetch buffer needed, at most ``depth`` during steady state.
    ``lateness[i]`` is how long element ``i`` was presented after its
    shifted deadline (0 when it was on time); ``max_wait`` is the
    largest of them and ``underruns`` counts the positive ones.
    """

    depth: int
    startup_delay: Rational
    underruns: int
    max_wait: Rational
    presented: int
    high_water: int = 0
    lateness: list[Rational] = field(default_factory=list)

    @property
    def underrun_fraction(self) -> float:
        if not self.presented:
            return 0.0
        return self.underruns / self.presented


def simulate_prefetch(
    production_times: list[Rational],
    deadlines: list[Rational],
    depth: int,
) -> PrefetchReport:
    """Simulate playback with a prefetch buffer of ``depth`` elements.

    ``production_times[i]`` is when element ``i`` finishes read+decode
    under continuous production (already cumulative); ``deadlines[i]`` is
    its ideal presentation time *relative to playback start*. Playback
    starts once ``depth`` elements (or all of them) are buffered. An
    underrun occurs when an element's production completes after its
    shifted deadline; the element is presented late rather than dropped.
    Times are exact: ``Rational`` seconds, or int ticks of one frequency
    (the player's), and the report's times are of the same kind.
    """
    if len(production_times) != len(deadlines):
        raise EngineError("production and deadline lists must align")
    count = len(deadlines)
    if count == 0:
        return PrefetchReport(depth, Rational(0), 0, Rational(0), 0)
    if depth < 1:
        raise EngineError("prefetch depth must be >= 1")
    fill = min(depth, count)
    startup = production_times[fill - 1]
    zero = startup - startup
    underruns = 0
    max_wait = zero
    lateness = []
    presentations = []
    # Buffer occupancy high-water: both production and presentation
    # times are non-decreasing, so counting at each production instant
    # the earlier elements produced but not yet presented finds the
    # peak in the same forward pass.
    high_water = 0
    presented_before = 0
    for index, (produced, deadline) in enumerate(
            zip(production_times, deadlines)):
        while (presented_before < index
               and presentations[presented_before] < produced):
            presented_before += 1
        if index - presented_before >= high_water:
            high_water = index + 1 - presented_before
        shifted_deadline = startup + deadline
        if produced > shifted_deadline:
            late = produced - shifted_deadline
            underruns += 1
            if late > max_wait:
                max_wait = late
            presentations.append(produced)
        else:
            late = zero
            presentations.append(shifted_deadline)
        lateness.append(late)
    return PrefetchReport(
        depth=depth,
        startup_delay=startup,
        underruns=underruns,
        max_wait=max_wait,
        presented=count,
        high_water=high_water,
        lateness=lateness,
    )
