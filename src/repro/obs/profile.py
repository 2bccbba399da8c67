"""Stage-level pipeline profiler over the metrics/span record.

"Where did the time go?" has two deterministic answers in this stack:

* **Stage attribution** — the player decomposes every element's charged
  cost with the :class:`~repro.engine.player.CostModel` and observes the
  parts into the ``pipeline.stage_seconds`` histogram, labeled by
  pipeline stage: ``page_read`` (seek + transfer), ``decode`` (decoder
  work), ``derivation_expand`` (estimated cost of materializing derived
  components while planning), ``compose`` (temporal composition —
  pointer arithmetic in this model, so it counts components but charges
  zero simulated time), and ``deliver`` (time spent getting the stream
  out beyond raw read/decode work: startup buffering, retry backoffs,
  wasted fault probes). :func:`profile_stages` folds the histogram into
  per-stage totals, shares and deterministic p50/p99 quantiles.

* **Self-time breakdown** — :func:`self_time_breakdown` walks the span
  tree and charges each span name its total minus its children's
  durations (children on a different time domain — logical ticks under
  simulated seconds or vice versa — are skipped rather than subtracted
  across units).

Both views are pure functions of the observability record, so
same-seed runs profile byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.instrument import Observability
from repro.obs.metrics import Histogram, export_value

#: Pipeline stages in presentation order.
STAGES = ("page_read", "decode", "derivation_expand", "compose", "deliver")

#: The histogram the player observes per-stage seconds into.
STAGE_METRIC = "pipeline.stage_seconds"

#: Fixed per-stage time boundaries (seconds): sub-0.1 ms decode slices
#: through multi-second recovery stalls.
STAGE_BUCKETS: tuple[float, ...] = (
    0.00001, 0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


@dataclass(frozen=True)
class StageStats:
    """One stage's attribution: how often, how long, how skewed."""

    stage: str
    count: int
    total_seconds: float
    p50: float
    p99: float
    share: float

    def export(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "p50": self.p50,
            "p99": self.p99,
            "share": self.share,
        }


@dataclass(frozen=True)
class PipelineProfile:
    """Per-stage attribution of one run's simulated time."""

    stages: tuple[StageStats, ...]

    @property
    def total_seconds(self) -> float:
        return sum(s.total_seconds for s in self.stages)

    def stage(self, name: str) -> StageStats | None:
        for stats in self.stages:
            if stats.stage == name:
                return stats
        return None

    def dominant_stage(self) -> str | None:
        """The stage charged the most simulated time (ties resolve to
        pipeline order); None when nothing was attributed."""
        best: StageStats | None = None
        for stats in self.stages:
            if stats.total_seconds > 0 and (
                    best is None or stats.total_seconds > best.total_seconds):
                best = stats
        return best.stage if best is not None else None

    def rows(self) -> list[tuple]:
        return [
            (s.stage, s.count, f"{s.total_seconds:.6f}",
             f"{s.p50 * 1000:.3f}", f"{s.p99 * 1000:.3f}",
             f"{s.share:.1%}")
            for s in self.stages
        ]

    def table(self, title: str | None = None) -> str:
        from repro.bench.reporting import table_text

        return table_text(
            ("stage", "count", "total s", "p50 ms", "p99 ms", "share"),
            self.rows(),
            title=title or "pipeline stage profile",
        )

    def export(self) -> list[dict[str, Any]]:
        return [s.export() for s in self.stages]


def profile_stages(obs: Observability) -> PipelineProfile:
    """Fold the stage histogram into a :class:`PipelineProfile`.

    Stages never observed are omitted; an uninstrumented (or stage-free)
    run profiles to an empty tuple.
    """
    if not obs.enabled or STAGE_METRIC not in obs.metrics:
        return PipelineProfile(stages=())
    histogram = obs.metrics.get(STAGE_METRIC)
    if not isinstance(histogram, Histogram):
        return PipelineProfile(stages=())
    totals = {
        stage: histogram.sum(stage=stage)
        for stage in STAGES
        if histogram.count(stage=stage)
    }
    grand_total = sum(totals.values())
    stats = []
    for stage in STAGES:
        count = histogram.count(stage=stage)
        if not count:
            continue
        total = totals[stage]
        stats.append(StageStats(
            stage=stage,
            count=count,
            total_seconds=total,
            p50=histogram.quantile(0.5, stage=stage),
            p99=histogram.quantile(0.99, stage=stage),
            share=(total / grand_total) if grand_total > 0 else 0.0,
        ))
    return PipelineProfile(stages=tuple(stats))


@dataclass(frozen=True)
class SpanSelfTime:
    """Aggregated wall of one span name: total vs. self (minus children)."""

    name: str
    count: int
    total: Any
    self_time: Any

    def export(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total": export_value(self.total),
            "self": export_value(self.self_time),
        }


def _domain(value: Any) -> str:
    return "logical" if isinstance(value, int) else "simulated"


def self_time_breakdown(obs: Observability) -> list[SpanSelfTime]:
    """Per span name: occurrence count, total duration and self time.

    Self time subtracts only children in the parent's own time domain —
    a simulated-seconds child under a logical-tick parent contributes to
    totals under its own name but never corrupts the parent's
    arithmetic with mixed units. Unfinished spans are skipped. Rows are
    sorted by name.
    """
    spans = [s for s in obs.tracer.spans
             if s.end is not None and _domain(s.start) == _domain(s.end)]
    by_id = {s.span_id: s for s in spans}
    child_time: dict[int, Any] = {}
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id is not None \
            else None
        if parent is None or _domain(parent.start) != _domain(span.start):
            continue
        duration = span.end - span.start
        child_time[parent.span_id] = (
            child_time.get(parent.span_id, 0) + duration
        )
    totals: dict[str, list] = {}
    for span in spans:
        duration = span.end - span.start
        self_time = duration - child_time.get(span.span_id, 0)
        entry = totals.setdefault(span.name, [0, 0, 0])
        entry[0] += 1
        entry[1] = entry[1] + duration
        entry[2] = entry[2] + self_time
    return [
        SpanSelfTime(name=name, count=entry[0], total=entry[1],
                     self_time=entry[2])
        for name, entry in sorted(totals.items())
    ]
