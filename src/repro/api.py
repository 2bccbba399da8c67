"""The supported public surface of :mod:`repro`.

Import from here::

    from repro.api import MediaDatabase, Player, Observability

Everything in ``__all__`` is the blessed, stable face of the library —
the data model (timed streams, interpretation, derivation,
composition), the storage substrate, the caching layer (``BufferPool``,
``DerivationCache``), the playback engine, fault injection, the
durability layer (WAL, atomic commits, recovery),
observability, the static verification layer and the query catalog. Subpackage-internal
names (codecs' DCT helpers, pager internals, benchmark plumbing) are
deliberately excluded; reaching past this module into submodules is
possible but unsupported across versions.

The facade re-exports; it defines nothing, so ``repro.api.Player is
repro.engine.Player`` — instances cross the boundary freely.
"""

from __future__ import annotations

from repro import errors
from repro.analysis import (
    Diagnostic,
    DiagnosticReport,
    GraphChecker,
    LintEngine,
    blocking_diagnostics,
    check_media_graph,
    lint_repo,
    rule_registry,
)
from repro.blob import (
    PAGE_SIZE,
    Blob,
    BlobStore,
    FilePager,
    MemoryBlob,
    MemoryPager,
    PagedBlob,
    PageStore,
)
from repro.cache import BufferPool, DerivationCache
from repro.durability import (
    DurablePageStore,
    RecoveryReport,
    WriteAheadLog,
    atomic_write_bytes,
    recover_page_store,
)
from repro.core import (
    DerivationObject,
    Derivation,
    DerivedMediaObject,
    DiscreteTimeSystem,
    ElementDescriptor,
    Interpretation,
    Interval,
    MediaDescriptor,
    MediaElement,
    MediaKind,
    MediaObject,
    MediaType,
    MultimediaObject,
    PlacementEntry,
    ProvenanceGraph,
    QualityFactor,
    Rational,
    StreamCategory,
    TimedStream,
    TimedTuple,
    as_rational,
    derivation_registry,
    media_type_registry,
)
from repro.engine import (
    AdaptationPolicy,
    CostModel,
    EventLoop,
    Fleet,
    FleetHealth,
    PlaybackReport,
    Player,
    PrefetchReport,
    Recorder,
    RetryPolicy,
    ServeOptions,
    ServerHealth,
    ServerReport,
    SessionRequest,
    VodServer,
    measure_sync,
)
from repro.faults import (
    CrashInjector,
    FaultPlan,
    FaultyPager,
    SimulatedMedium,
)
from repro.obs import (
    Alert,
    AlertManager,
    BurnRateRule,
    Event,
    FlightRecorder,
    Instrumented,
    LogicalClock,
    MetricsRegistry,
    NullObservability,
    Observability,
    PipelineProfile,
    Severity,
    Slo,
    SloPolicy,
    SloVerdict,
    Telemetry,
    TelemetryStore,
    TraceContext,
    Tracer,
    default_burn_rate_rules,
    default_slo_policy,
    profile_stages,
    self_time_breakdown,
    to_chrome_trace,
    to_json_lines,
    to_table,
)
from repro.query import (
    MediaDatabase,
    TemporalIndex,
    components_during,
    components_overlapping,
    frames_at_fidelity,
    select_duration,
    select_track,
)

__all__ = [
    # errors
    "errors",
    # static analysis
    "Diagnostic",
    "DiagnosticReport",
    "GraphChecker",
    "LintEngine",
    "blocking_diagnostics",
    "check_media_graph",
    "lint_repo",
    "rule_registry",
    # data model
    "Rational",
    "as_rational",
    "DiscreteTimeSystem",
    "Interval",
    "MediaKind",
    "MediaType",
    "media_type_registry",
    "MediaDescriptor",
    "ElementDescriptor",
    "QualityFactor",
    "MediaElement",
    "TimedStream",
    "TimedTuple",
    "StreamCategory",
    "MediaObject",
    "DerivedMediaObject",
    "Interpretation",
    "PlacementEntry",
    "Derivation",
    "DerivationObject",
    "derivation_registry",
    "MultimediaObject",
    "ProvenanceGraph",
    # storage
    "Blob",
    "MemoryBlob",
    "PagedBlob",
    "PageStore",
    "BlobStore",
    "MemoryPager",
    "FilePager",
    "PAGE_SIZE",
    # caching
    "BufferPool",
    "DerivationCache",
    # engine
    "Player",
    "CostModel",
    "RetryPolicy",
    "AdaptationPolicy",
    "PlaybackReport",
    "PrefetchReport",
    "Recorder",
    "EventLoop",
    "VodServer",
    "SessionRequest",
    "ServeOptions",
    "ServerHealth",
    "ServerReport",
    "Fleet",
    "FleetHealth",
    "measure_sync",
    # faults
    "CrashInjector",
    "FaultPlan",
    "FaultyPager",
    "SimulatedMedium",
    # durability
    "DurablePageStore",
    "RecoveryReport",
    "WriteAheadLog",
    "atomic_write_bytes",
    "recover_page_store",
    # observability
    "Observability",
    "NullObservability",
    "MetricsRegistry",
    "Tracer",
    "TraceContext",
    "LogicalClock",
    "Instrumented",
    "FlightRecorder",
    "Event",
    "Severity",
    "Slo",
    "SloPolicy",
    "SloVerdict",
    "default_slo_policy",
    "PipelineProfile",
    "profile_stages",
    "self_time_breakdown",
    "to_chrome_trace",
    "to_json_lines",
    "to_table",
    # telemetry
    "Telemetry",
    "TelemetryStore",
    "Alert",
    "AlertManager",
    "BurnRateRule",
    "default_burn_rate_rules",
    # query
    "MediaDatabase",
    "TemporalIndex",
    "select_track",
    "select_duration",
    "frames_at_fidelity",
    "components_during",
    "components_overlapping",
]
