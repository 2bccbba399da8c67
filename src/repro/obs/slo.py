"""Declarative service-level objectives over simulated playback.

The paper's runtime claim — derivation and composition are only usable
if playback meets real-time deadlines (§4.2, §5) — becomes testable
once the deadlines are stated as objectives. An :class:`Slo` names one
measurable property of a playback run (startup latency, deadline-miss
rate, rebuffer ratio, delivered-quality floor), a threshold and a
direction; an :class:`SloPolicy` evaluates a set of them over one
:class:`~repro.engine.player.PlaybackReport`'s exact arithmetic and
returns :class:`SloVerdict` rows.

Alerting is burn-rate style: ``burn`` is how much of the objective's
error budget the measured value consumes (1.0 = exactly at threshold).
A verdict whose burn crosses ``warn_burn`` is a WARNING before the SLO
is even violated; a violated SLO is an ERROR, escalating to CRITICAL at
``critical_burn``. The :class:`~repro.engine.player.Player` records
each non-OK verdict as a flight-recorder event stamped with the
simulated clock, so the event log answers *when* a session started
burning its budget.

Everything here is arithmetic over the report's rationals and floats —
same-seed runs produce byte-identical verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ObservabilityError
from repro.obs.events import Severity

#: Measurement keys an :class:`Slo` may target. Each is derived from a
#: PlaybackReport by :func:`report_measurements`.
MEASUREMENTS = (
    "startup_seconds",
    "deadline_miss_rate",
    "rebuffer_ratio",
    "delivered_quality",
)


@dataclass(frozen=True, kw_only=True)
class Slo:
    """One objective: ``measurement`` must stay on the right side of
    ``threshold``.

    ``objective`` is the direction: ``"max"`` means the measurement
    must stay at or below the threshold (latency, miss rates),
    ``"min"`` means at or above (quality floors). ``warn_burn`` /
    ``critical_burn`` set the burn-rate alert thresholds.
    """

    name: str
    measurement: str
    threshold: float
    objective: str = "max"
    description: str = ""
    warn_burn: float = 0.75
    critical_burn: float = 2.0

    def __post_init__(self) -> None:
        if self.measurement not in MEASUREMENTS:
            raise ObservabilityError(
                f"SLO {self.name!r} targets unknown measurement "
                f"{self.measurement!r}; have: {', '.join(MEASUREMENTS)}"
            )
        if self.objective not in ("max", "min"):
            raise ObservabilityError(
                f"SLO {self.name!r} objective must be 'max' or 'min', "
                f"got {self.objective!r}"
            )
        if self.threshold < 0:
            raise ObservabilityError(
                f"SLO {self.name!r} threshold must be non-negative"
            )
        if not 0 < self.warn_burn <= 1.0:
            raise ObservabilityError(
                f"SLO {self.name!r} warn_burn must be in (0, 1]"
            )
        if self.critical_burn < 1.0:
            raise ObservabilityError(
                f"SLO {self.name!r} critical_burn must be >= 1.0"
            )

    def burn(self, measured: float) -> float:
        """Error-budget consumption: 1.0 at the threshold exactly.

        For a ``max`` objective, burn = measured / threshold. For a
        ``min`` objective the budget is the allowed shortfall below
        1.0, so burn = (1 - measured) / (1 - threshold); a threshold of
        1.0 burns in whole units of violation instead.
        """
        if self.objective == "max":
            if self.threshold > 0:
                return measured / self.threshold
            return 0.0 if measured <= 0 else self.critical_burn
        budget = 1.0 - self.threshold
        shortfall = 1.0 - measured
        if budget > 0:
            return max(0.0, shortfall / budget)
        return 0.0 if shortfall <= 0 else self.critical_burn

    def evaluate(self, measured: float) -> "SloVerdict":
        if self.objective == "max":
            ok = measured <= self.threshold
        else:
            ok = measured >= self.threshold
        burn = self.burn(measured)
        if not ok:
            severity = (Severity.CRITICAL if burn >= self.critical_burn
                        else Severity.ERROR)
        elif burn >= self.warn_burn:
            severity = Severity.WARNING
        else:
            severity = Severity.INFO
        return SloVerdict(
            slo=self.name,
            measurement=self.measurement,
            measured=measured,
            threshold=self.threshold,
            objective=self.objective,
            ok=ok,
            burn=burn,
            severity=severity,
        )


@dataclass(frozen=True)
class SloVerdict:
    """Outcome of evaluating one SLO against one run."""

    slo: str
    measurement: str
    measured: float
    threshold: float
    objective: str
    ok: bool
    burn: float
    severity: Severity

    def export(self) -> dict:
        return {
            "slo": self.slo,
            "measurement": self.measurement,
            "measured": self.measured,
            "threshold": self.threshold,
            "objective": self.objective,
            "ok": self.ok,
            "burn": self.burn,
            "severity": self.severity.name,
        }

    def summary(self) -> str:
        status = "OK" if self.ok else self.severity.name
        sign = "<=" if self.objective == "max" else ">="
        return (
            f"{self.slo}: {status} "
            f"({self.measured:.6g} {sign} {self.threshold:.6g}, "
            f"burn {self.burn:.2f})"
        )


class SloPolicy:
    """An ordered set of SLOs evaluated together over one report."""

    def __init__(self, slos: list[Slo] | tuple[Slo, ...]):
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ObservabilityError(
                f"duplicate SLO names in policy: {names}"
            )
        self.slos = tuple(slos)

    def __len__(self) -> int:
        return len(self.slos)

    def __iter__(self):
        return iter(self.slos)

    def evaluate(self, measurements: dict[str, float]) -> list[SloVerdict]:
        verdicts = []
        for slo in self.slos:
            measured = measurements.get(slo.measurement)
            if measured is None:
                continue
            verdicts.append(slo.evaluate(measured))
        return verdicts

    def evaluate_report(self, report) -> list[SloVerdict]:
        """Evaluate against a :class:`~repro.engine.player.PlaybackReport`."""
        return self.evaluate(report_measurements(report))


def report_measurements(report) -> dict[str, float]:
    """The SLO measurement vector of one playback report.

    ``rebuffer_ratio`` is total per-element lateness over programme
    duration — the fraction of the presentation the viewer spent
    waiting past a deadline (no sum when no read was late).
    """
    duration = report.duration
    if duration > 0 and report.per_read and report.max_lateness > 0:
        total_late = sum(late for _, _, late in report.per_read)
        rebuffer = float(total_late / duration)
    else:
        rebuffer = 0.0
    return {
        "startup_seconds": float(report.startup_delay),
        "deadline_miss_rate": float(report.underrun_fraction),
        "rebuffer_ratio": rebuffer,
        "delivered_quality": float(report.delivered_quality),
    }


def default_slo_policy() -> SloPolicy:
    """The stock serving objectives, grounded in the paper's regime.

    Startup within 2 s (a 1994 optical drive's seek+spin budget; §4.1
    treats layout-induced startup as the tolerable cost of interleaved
    capture), at most 5% of deadlines missed (§5's jitter-removal claim
    presumes misses are rare enough to buffer away), at most 2% of the
    programme spent rebuffering, and delivered quality no lower than
    the 0.5 fraction §2.2's scalable streams can shed before the
    content stops being "the same" media object.
    """
    return SloPolicy([
        Slo(name="startup-latency", measurement="startup_seconds",
            threshold=2.0, objective="max",
            description="first-frame latency stays within 2 s"),
        Slo(name="deadline-miss-rate", measurement="deadline_miss_rate",
            threshold=0.05, objective="max",
            description="at most 5% of element deadlines are missed"),
        Slo(name="rebuffer-ratio", measurement="rebuffer_ratio",
            threshold=0.02, objective="max",
            description="at most 2% of the programme is spent waiting"),
        Slo(name="delivered-quality", measurement="delivered_quality",
            threshold=0.5, objective="min",
            description="scalable adaptation keeps at least half fidelity"),
    ])


def worst_verdicts(verdict_lists) -> list[SloVerdict]:
    """Per SLO name, the highest-burn verdict across many sessions.

    The aggregation :meth:`~repro.engine.vod.VodServer.health` reports:
    one row per objective, showing the worst any session did. Rows keep
    first-seen SLO order.
    """
    worst: dict[str, SloVerdict] = {}
    order: list[str] = []
    for verdicts in verdict_lists:
        for verdict in verdicts:
            if verdict.slo not in worst:
                order.append(verdict.slo)
                worst[verdict.slo] = verdict
            elif verdict.burn > worst[verdict.slo].burn:
                worst[verdict.slo] = verdict
    return [worst[name] for name in order]
