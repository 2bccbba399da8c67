"""Static §4.2 feasibility: store-or-expand and sustained data rate.

"If the expansion can be done in real-time, then the derived object is
all that needs be stored. Otherwise ... it may be necessary to store the
expansion." These rules answer it *before* running anything, from the
:class:`~repro.engine.player.CostModel` alone — the same
:meth:`~repro.engine.player.CostModel.expansion_cost` the
:class:`~repro.cache.derivations.DerivationCache` admits by:

MG008 — a derived component whose worst-case expansion cost exceeds the
time available before its first element is due: it must be materialized
ahead of playback (expand-on-demand is unsafe);
MG009 — the composed plan demands a sustained data rate beyond the
available bandwidth at some point of the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.graph import (
    GraphContext,
    Placement,
    static_bytes,
    static_rate,
)
from repro.analysis.rules import graph_rule
from repro.core.rational import Rational
from repro.obs.events import Severity


@dataclass(frozen=True)
class DerivationVerdict:
    """§4.2 classification of one placed derived component."""

    path: str
    name: str
    cost: Rational       # worst-case expansion seconds (CostModel-priced)
    budget: Rational     # seconds available before its first element
    must_materialize: bool


def classify_derivations(context: GraphContext) -> list[DerivationVerdict]:
    """Classify every placed, unexpanded derived component.

    The worst-case expansion cost is
    :meth:`~repro.engine.player.CostModel.expansion_cost` with the
    inputs' static bytes as both the input and the (conservatively
    equal) output size — the price the player and the derivation cache
    charge, but from static sizes so nothing expands. The budget is
    the component's start time on the composed timeline plus the
    checker's startup budget: everything due later than that leaves
    time to expand.
    """
    cost_model = context.cost_model
    verdicts: list[DerivationVerdict] = []
    if cost_model is None:
        return verdicts
    for placement in context.placements:
        obj = placement.obj
        if not obj.is_derived or obj.is_materialized:
            continue
        static = static_bytes(obj)
        cost = cost_model.expansion_cost(static, static)
        budget = context.startup_budget + placement.start
        verdicts.append(DerivationVerdict(
            path=placement.path,
            name=obj.name,
            cost=cost,
            budget=budget,
            must_materialize=cost > budget,
        ))
    return verdicts


@graph_rule(
    "MG008", "must materialize before playback", Severity.WARNING,
    doc="A derived component's worst-case expansion cost exceeds the "
        "time available before its first element is due; expand-on-"
        "demand would miss the deadline (§4.2: store the expansion).",
)
def check_expansion_cost(context: GraphContext) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for verdict in classify_derivations(context):
        if not verdict.must_materialize:
            continue
        findings.append(Diagnostic(
            rule="MG008", severity=Severity.WARNING, location=verdict.path,
            message=(
                f"expanding {verdict.name!r} costs "
                f"{float(verdict.cost):.3f}s but only "
                f"{float(verdict.budget):.3f}s is available before its "
                f"first element; expand-on-demand is unsafe"
            ),
            hint="materialize() the derived object before playback, "
                 "attach a DerivationCache, or raise startup_budget",
        ))
    return findings


def _active_rate(placements: list[Placement], at: Rational) -> tuple[Rational, list[str]]:
    total = Rational(0)
    names: list[str] = []
    for p in placements:
        if p.interval is None or not p.interval.contains_time(at):
            continue
        rate = static_rate(p.obj)
        if rate is None:
            continue
        total += rate
        names.append(p.path)
    return total, names


@graph_rule(
    "MG009", "data rate infeasible", Severity.ERROR,
    doc="The plan requires a sustained data rate beyond the available "
        "bandwidth somewhere on the timeline; playback must underrun.",
)
def check_rate(context: GraphContext) -> list[Diagnostic]:
    bandwidth = context.bandwidth
    if bandwidth is None:
        return []
    timed = [
        p for p in context.placements
        if p.interval is not None and not p.interval.is_instant
        and p.obj.media_type.kind.is_time_based
    ]
    findings: list[Diagnostic] = []
    reported: set[str] = set()
    for start in sorted({p.interval.start for p in timed}):
        required, names = _active_rate(timed, start)
        if required <= bandwidth:
            continue
        key = ",".join(sorted(names))
        if key in reported:
            continue  # same component set: one finding per overload group
        reported.add(key)
        findings.append(Diagnostic(
            rule="MG009", severity=Severity.ERROR,
            location=context.subject,
            message=(
                f"from {start.to_timestamp()} the plan needs "
                f"{float(required) / 1024:.0f} KiB/s but only "
                f"{float(bandwidth) / 1024:.0f} KiB/s is available "
                f"({', '.join(sorted(names))})"
            ),
            hint="stagger the overlapping components, lower their "
                 "quality factor, or provision more bandwidth",
        ))
    return findings
