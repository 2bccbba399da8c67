"""Deterministic observability: metrics, spans and the hook protocol.

The storage/engine/query stack simulates time exactly — fault schedules
are pure functions of a seed, playback arithmetic is rational — so its
observability can be exact too. This package records *what happened
inside* a run (per-page read counts, retry/backoff spans, buffer
high-water marks, expansion costs, query selectivity) without breaking
that determinism: same seed, byte-identical trace and metric exports.

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms;
* :mod:`repro.obs.tracing` — :class:`Tracer` whose timestamps come from
  a simulated clock or a monotonic :class:`LogicalClock`, never the
  wall clock;
* :mod:`repro.obs.instrument` — :class:`Observability` (the bundle) and
  the :class:`Instrumented` mixin the stack's classes adopt;
* :mod:`repro.obs.export` — nested-dict, JSON-lines and aligned-table
  exporters.

Usage::

    from repro.obs import Observability
    from repro.obs.export import to_table

    obs = Observability()
    player = Player(cost_model, obs=obs)
    player.play(interpretation)
    print(to_table(obs))
"""

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import LogicalClock, Span, TraceContext, Tracer
from repro.obs.events import (
    DEFAULT_EVENT_CAPACITY,
    Event,
    FlightRecorder,
    Severity,
)
from repro.obs.instrument import (
    NULL_OBS,
    Instrumented,
    NullObservability,
    Observability,
)
from repro.obs.slo import (
    Slo,
    SloPolicy,
    SloVerdict,
    default_slo_policy,
    report_measurements,
    worst_verdicts,
)
from repro.obs.profile import (
    STAGE_BUCKETS,
    STAGE_METRIC,
    STAGES,
    PipelineProfile,
    SpanSelfTime,
    StageStats,
    profile_stages,
    self_time_breakdown,
)
from repro.obs.export import (
    events_to_table,
    metrics_rows,
    to_chrome_trace,
    to_dict,
    to_json_lines,
    to_table,
    trace_events,
)
# Telemetry is re-exported lazily (PEP 562): it is the one obs module
# that needs repro.core (exact-rational scrape times), and repro.core
# reaches back through repro.blob into this package at import time —
# an eager import here would be a cycle for anyone importing
# repro.blob first.
_TELEMETRY_NAMES = frozenset({
    "DEFAULT_SCRAPE_INTERVAL",
    "Alert",
    "AlertManager",
    "BurnRateRule",
    "Telemetry",
    "TelemetryStore",
    "default_burn_rate_rules",
})


def __getattr__(name):
    if name in _TELEMETRY_NAMES:
        from repro.obs import telemetry

        return getattr(telemetry, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")


__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LogicalClock",
    "Span",
    "TraceContext",
    "Tracer",
    "DEFAULT_EVENT_CAPACITY",
    "Event",
    "FlightRecorder",
    "Severity",
    "NULL_OBS",
    "Instrumented",
    "NullObservability",
    "Observability",
    "Slo",
    "SloPolicy",
    "SloVerdict",
    "default_slo_policy",
    "report_measurements",
    "worst_verdicts",
    "STAGE_BUCKETS",
    "STAGE_METRIC",
    "STAGES",
    "PipelineProfile",
    "SpanSelfTime",
    "StageStats",
    "profile_stages",
    "self_time_breakdown",
    "events_to_table",
    "metrics_rows",
    "to_chrome_trace",
    "to_dict",
    "to_json_lines",
    "to_table",
    "trace_events",
    "DEFAULT_SCRAPE_INTERVAL",
    "Alert",
    "AlertManager",
    "BurnRateRule",
    "Telemetry",
    "TelemetryStore",
    "default_burn_rate_rules",
]
