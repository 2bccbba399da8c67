"""Video-on-demand server simulation.

§1.1's motivating application: "new multimedia applications such as
video on-demand services and virtual environments stand to benefit from
access to large databases of time-based material." This module simulates
the serving side: a fixed outbound bandwidth shared by concurrent client
sessions, rate-based admission control, and per-client playback
reports.

The model is deliberately simple and exact: admitted clients share the
server's bandwidth equally (processor-sharing), so each client sees
``bandwidth / n`` while ``n`` sessions are active. A session underruns
when its share cannot sustain its stream's required rate — the capacity
crossover the benchmark sweeps.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass, field
from functools import partial
from math import lcm
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.interpretation import Interpretation
from repro.core.rational import ZERO, Rational, as_rational
from repro.core.time_system import to_ticks
from repro.engine.kernel import (
    BandwidthLedger,
    EventLoop,
    SessionMachine,
    SimulatedClock,
)
from repro.engine.player import (
    AdaptationPolicy,
    CostModel,
    PlaybackReport,
    Player,
    RetryPolicy,
)
from repro.errors import (
    CheckpointError,
    DurabilityError,
    EngineError,
    MediaModelError,
    ResourceError,
    SimulatedCrash,
)
from repro.faults.crash import NULL_CRASH, CrashInjector
from repro.faults.plan import FaultPlan
from repro.obs.events import Severity
from repro.obs.instrument import NULL_OBS, Observability
from repro.obs.profile import profile_stages
from repro.obs.slo import SloVerdict, worst_verdicts
from repro.obs.tracing import TraceContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

#: Checkpoint payload format version; bump on incompatible changes.
CHECKPOINT_VERSION = 2

#: Kernel drive modes a batch may request.
_GRANULARITIES = ("auto", "read")


@dataclass(frozen=True, kw_only=True)
class SessionRequest:
    """One client's request for a title, as a first-class object.

    ``arrival_time`` staggers the session's start on the kernel's
    shared clock (the seed behaviour is every session arriving at time
    zero); ``retry_policy`` and ``adaptation`` override the batch-wide
    policies for this session only. ``key`` is the session's identity —
    what fleet rollups count exactly once.
    """

    client: str
    title: str
    arrival_time: Rational = Rational(0)
    retry_policy: RetryPolicy | None = None
    adaptation: AdaptationPolicy | None = None

    def __post_init__(self) -> None:
        arrival = as_rational(self.arrival_time)
        if arrival < 0:
            raise EngineError(f"arrival_time must be >= 0, got {arrival}")
        object.__setattr__(self, "arrival_time", arrival)

    @property
    def key(self) -> tuple[str, str]:
        return (self.client, self.title)

    def replace(self, **changes: Any) -> "SessionRequest":
        return dataclasses.replace(self, **changes)

    def to_payload(self) -> dict:
        """The whole request, JSON-safe, for a checkpoint batch: both
        policies as None or their fields, exact rationals as ``num/den``
        strings."""
        return {
            "client": self.client,
            "title": self.title,
            "arrival_time": str(self.arrival_time),
            "retry_policy": _policy_payload(self.retry_policy),
            "adaptation": _policy_payload(self.adaptation),
        }

    @classmethod
    def from_payload(cls, payload: dict,
                     elapsed: Rational) -> "SessionRequest":
        """The request :meth:`to_payload` stored, resumed ``elapsed``
        seconds into its batch: one that had already arrived restarts
        at once, one that had not waits out the rest of its offset."""
        retry_policy = payload["retry_policy"]
        adaptation = payload["adaptation"]
        return cls(
            client=payload["client"],
            title=payload["title"],
            arrival_time=max(
                ZERO, Rational(payload["arrival_time"]) - elapsed),
            retry_policy=(None if retry_policy is None
                          else RetryPolicy(**retry_policy)),
            adaptation=(None if adaptation is None
                        else AdaptationPolicy(**adaptation)),
        )


def _policy_payload(policy: RetryPolicy | AdaptationPolicy | None,
                    ) -> dict | None:
    """A policy's fields, JSON-safe: exact rationals as ``num/den``
    strings and a name set sorted. The policy's own constructor reads
    them back."""
    if policy is None:
        return None
    payload: dict[str, Any] = {}
    for spec in dataclasses.fields(policy):
        value = getattr(policy, spec.name)
        if isinstance(value, Rational):
            value = str(value)
        elif isinstance(value, tuple):
            value = [str(item) for item in value]
        elif isinstance(value, frozenset):
            value = sorted(value)
        payload[spec.name] = value
    return payload


@dataclass(frozen=True, kw_only=True)
class ServeOptions:
    """Batch-wide serving policy, as one object.

    ``granularity`` picks the kernel drive mode: ``"read"`` steps one
    element per event, so sessions genuinely interleave on the shared
    clock and bandwidth re-prices as sessions come and go; ``"auto"``
    (the default) runs each session whole in a single event when every
    arrival is at time zero — sessions then play serially in admitted
    order, the seed semantics — and steps reads otherwise.
    """

    enforce_admission: bool = True
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    adaptation: AdaptationPolicy | None = None
    checkpoint_to: str | None = None
    checkpoint_fs: Any = None
    granularity: str = "auto"

    def __post_init__(self) -> None:
        if self.granularity not in _GRANULARITIES:
            raise EngineError(
                f"granularity must be one of {_GRANULARITIES}, "
                f"got {self.granularity!r}"
            )

    def replace(self, **changes: Any) -> "ServeOptions":
        return dataclasses.replace(self, **changes)


def normalize_requests(
    requests: "Sequence[SessionRequest] | SessionRequest",
) -> list[SessionRequest]:
    """The batch as a list of :class:`SessionRequest` objects.

    A single request may stand in for a batch of one; any item that is
    not a ``SessionRequest`` raises :class:`~repro.errors.EngineError`.
    """
    if isinstance(requests, SessionRequest):
        return [requests]
    normalized = list(requests)
    for request in normalized:
        if not isinstance(request, SessionRequest):
            raise EngineError(
                f"requests must be SessionRequest objects, got {request!r}"
            )
    return normalized


def admit_greedily(requests: list[SessionRequest], owner: Callable[[str], VodServer],
                   ) -> tuple[list[SessionRequest], list[SessionRequest]]:
    """The one admission loop, a server's and a fleet's: in order, a
    request is admitted iff its title's rate fits beside the load already
    admitted on ``owner(title)``, the :class:`VodServer` serving it. A
    server counts rates in units of one scale, the lcm of its rated
    titles' rate denominators, and its bandwidth with margin as the most
    units that fit, ``⌊bandwidth · scale / margin⌋``, so ``load + units
    <= limit`` is ``(load + rate) · margin <= bandwidth`` on ints."""
    admitted: list[SessionRequest] = []
    rejected: list[SessionRequest] = []
    loads: dict[VodServer, int] = {}
    for request in requests:
        server = owner(request.title)
        load = loads.get(server, 0) + server._units_of(request.title)
        if load <= server._limit:
            admitted.append(request)
            loads[server] = load
        else:
            rejected.append(request)
    return admitted, rejected


@dataclass
class Session:
    """One admitted client session.

    ``degraded`` marks a session the server had to re-admit in fallback
    mode (base quality, unbounded skip tolerance) after its first
    playback aborted on storage faults. ``resumed`` marks a session
    served by a server restored from a crash checkpoint — the client
    was handed off across a failover, which counts as degraded service
    even when the replay itself was clean.
    """

    client: str
    title: str
    report: PlaybackReport
    degraded: bool = False
    resumed: bool = False
    request: SessionRequest | None = None

    @property
    def identity(self) -> tuple[str, str]:
        """The session's request identity (client, title)."""
        if self.request is not None:
            return self.request.key
        return (self.client, self.title)


@dataclass
class ServerReport:
    """Outcome of serving a batch of concurrent requests.

    Sessions fall into disjoint quality tiers: *clean* (no underruns,
    no fault damage), *underrun* (late but intact), *degraded* (glitches,
    skipped elements or reduced delivered quality — whether from in-band
    adaptation or server-side failover). ``failed`` lists admitted
    sessions the server could not complete even in fallback mode.
    ``recovered`` counts sessions that finished *before* a crash and
    whose results were carried over from the checkpoint rather than
    re-served.
    """

    admitted: list[Session]
    rejected: list[SessionRequest]
    bandwidth: int
    per_client_bandwidth: int
    failed: list[tuple[str, str, str]] = field(default_factory=list)
    recovered: int = 0

    @property
    def admitted_count(self) -> int:
        return len(self.admitted)

    @staticmethod
    def _is_degraded(session: Session) -> bool:
        report = session.report
        return (session.degraded or session.resumed
                or report.glitches > 0
                or report.skipped_elements > 0
                or report.delivered_quality < 1)

    def clean_sessions(self) -> int:
        return sum(
            1 for s in self.admitted
            if s.report.underruns == 0 and not self._is_degraded(s)
        )

    def underrun_sessions(self) -> int:
        return sum(1 for s in self.admitted if s.report.underruns > 0)

    def degraded_sessions(self) -> int:
        return sum(1 for s in self.admitted if self._is_degraded(s))

    def failed_sessions(self) -> int:
        return len(self.failed)

    def mean_delivered_quality(self) -> float:
        """Mean delivered quality over admitted sessions.

        A batch with nobody admitted delivered nothing: 0.0, not a
        vacuous 1.0 (and never an exception) — capacity sweeps divide
        by this without special-casing the overloaded end.
        """
        if not self.admitted:
            return 0.0
        total = sum(
            float(s.report.delivered_quality) for s in self.admitted
        )
        return total / len(self.admitted)

    #: Per-identity outcome ranking; higher is worse.
    _OUTCOME_RANK = {"clean": 0, "underrun": 1, "degraded": 2, "failed": 3}

    def outcomes(self) -> dict[tuple[str, str], str]:
        """Worst outcome per session identity — each counted exactly once.

        The tier counters above keep the seed's per-session semantics,
        under which a session may show up in more than one bucket (both
        underrun and degraded, or re-served after a failover). Fleet
        rollups instead normalize on :attr:`SessionRequest.key`: every
        identity maps to exactly one of ``failed`` > ``degraded`` >
        ``underrun`` > ``clean``, with the worst observation winning
        when reports overlap (a resumed-then-degraded session counts
        once, as degraded).
        """
        ranked: dict[tuple[str, str], str] = {}

        def fold(key: tuple[str, str], outcome: str) -> None:
            held = ranked.get(key)
            if (held is None
                    or self._OUTCOME_RANK[outcome] > self._OUTCOME_RANK[held]):
                ranked[key] = outcome

        for session in self.admitted:
            if self._is_degraded(session):
                fold(session.identity, "degraded")
            elif session.report.underruns > 0:
                fold(session.identity, "underrun")
            else:
                fold(session.identity, "clean")
        for client, title, _reason in self.failed:
            fold((client, title), "failed")
        return ranked


@dataclass(frozen=True)
class ServerHealth:
    """Point-in-time serving health, aggregated over every ``serve``.

    ``status`` is ``"ok"``, ``"degraded"`` (underruns, degraded or
    rejected sessions, or a violated SLO) or ``"critical"`` (failed
    sessions or an SLO burning past its critical rate). ``slo`` holds
    the worst verdict per objective across all sessions;
    ``recent_critical`` is the tail of ERROR-and-above flight-recorder
    events, newest last.
    """

    status: str
    sessions: int
    clean: int
    underrun: int
    degraded: int
    failed: int
    rejected: int
    slo: tuple[SloVerdict, ...]
    cache_hit_ratios: dict[str, float]
    dominant_stage: str | None
    recent_critical: tuple[dict, ...]
    #: Burn-rate alert exports from the attached telemetry pipeline
    #: (empty without one). A currently-firing alert degrades status
    #: even while sessions are still streaming.
    alerts: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def firing_alerts(self) -> tuple[dict, ...]:
        return tuple(a for a in self.alerts if a["state"] == "firing")

    def export(self) -> dict:
        return {
            "status": self.status,
            "sessions": self.sessions,
            "clean": self.clean,
            "underrun": self.underrun,
            "degraded": self.degraded,
            "failed": self.failed,
            "rejected": self.rejected,
            "slo": [v.export() for v in self.slo],
            "cache_hit_ratios": {
                name: self.cache_hit_ratios[name]
                for name in sorted(self.cache_hit_ratios)
            },
            "dominant_stage": self.dominant_stage,
            "recent_critical": list(self.recent_critical),
            "alerts": list(self.alerts),
        }

    def summary(self) -> str:
        lines = [
            f"status: {self.status}",
            f"sessions: {self.sessions} ({self.clean} clean, "
            f"{self.underrun} underrun, {self.degraded} degraded, "
            f"{self.failed} failed, {self.rejected} rejected)",
        ]
        for verdict in self.slo:
            lines.append(f"slo {verdict.summary()}")
        for name in sorted(self.cache_hit_ratios):
            lines.append(
                f"cache {name}: hit ratio {self.cache_hit_ratios[name]:.1%}"
            )
        if self.dominant_stage is not None:
            lines.append(f"dominant stage: {self.dominant_stage}")
        for alert in self.alerts:
            lines.append(
                f"alert {alert['name']} [{alert['state']}] "
                f"source={alert['source']} "
                f"burn={alert['burn_short']:.2f}/{alert['burn_long']:.2f}"
            )
        for event in self.recent_critical:
            lines.append(
                f"event [{event['severity']}] {event['component']} "
                f"{event['name']} at={event['at']}"
            )
        return "\n".join(lines)


class VodServer:
    """Serves cataloged titles under a shared bandwidth budget."""

    def __init__(self, bandwidth: int, prefetch_depth: int = 8,
                 admission_margin: float = 1.0,
                 obs: Observability | None = None,
                 plan_check: str = "check",
                 crash: CrashInjector | None = None,
                 telemetry: "Telemetry | None" = None):
        """``bandwidth`` is outbound bytes/second; ``admission_margin``
        scales the admission test (1.2 keeps 20% headroom). ``obs``
        attaches an observability sink, shared with every session's
        player, so one registry captures the whole serving run.

        ``plan_check`` gates :meth:`publish` behind the static graph
        checker (same policies as :class:`Player`): the default
        ``"check"`` rejects structurally broken titles — placement rows
        beyond the BLOB, cycles — with
        :class:`~repro.errors.PlanRejectedError` before they can ever
        be admitted; ``"strict"`` also rejects statically infeasible
        ones; ``"off"`` publishes anything.

        ``crash`` is a :class:`~repro.faults.crash.CrashInjector` for
        the crash matrix: the server announces a crash point before
        each session and inside checkpoint writes, so the harness can
        kill it at every step of a serve.

        ``telemetry`` is a :class:`~repro.obs.telemetry.Telemetry`
        pipeline: when attached (and ``obs`` is live), every serve
        batch schedules a repeating scrape on its event loop, sampling
        the registry into the telemetry store and evaluating burn-rate
        alerts mid-serve. Every batch runs on the server's one simulated
        clock, so a later batch starts where the previous one ended and
        its scrapes never go back in time."""
        if bandwidth <= 0:
            raise EngineError("bandwidth must be positive")
        if admission_margin < 1.0:
            raise EngineError("admission margin must be >= 1.0")
        from repro.analysis.graph import PLAN_POLICIES

        if plan_check not in PLAN_POLICIES:
            raise EngineError(
                f"plan_check must be one of {PLAN_POLICIES}, "
                f"got {plan_check!r}"
            )
        self.bandwidth = bandwidth
        self.prefetch_depth = prefetch_depth
        self.admission_margin = admission_margin
        self.obs = NULL_OBS if obs is None else obs
        self.plan_check = plan_check
        self.crash = crash or NULL_CRASH
        self.telemetry = telemetry
        self._clock = SimulatedClock()
        self._titles: dict[str, Interpretation] = {}
        self._plan_cache: dict[str, tuple] = {}
        self._rates: dict[str, Rational] = {}
        # Admission's ints (admit_greedily), re-derived at each publish.
        self._units: dict[str, int] = {}
        self._limit = 0
        self._reports: list[ServerReport] = []
        # Kernel counters from the most recent batch (census/bench).
        self.last_loop_stats: dict | None = None
        # Progress of the serve batch currently running (feeds mid-serve
        # checkpoints) and the batch a restored server should resume.
        self._batch_progress: dict | None = None
        self._pending_batch: dict | None = None

    # -- catalog ---------------------------------------------------------------

    def publish(self, title: str, interpretation: Interpretation) -> None:
        """Add a title to the catalog after static verification.

        Under the server's ``plan_check`` policy the graph checker runs
        over the interpretation before it is accepted; a blocked title
        raises :class:`~repro.errors.PlanRejectedError` and is not
        published, so admission and serving never see it.
        A title whose sequences all declare an ``average_data_rate``
        joins admission's scale (:func:`admit_greedily`); requesting any
        other raises :class:`~repro.errors.ResourceError`.
        """
        if title in self._titles:
            raise EngineError(f"title {title!r} already published")
        if self.plan_check != "off":
            from repro.analysis.graph import blocking_diagnostics
            from repro.errors import PlanRejectedError

            report = self._check_interpretation(interpretation)
            blocking = blocking_diagnostics(report, self.plan_check)
            if blocking:
                self.obs.metrics.counter("vod.publish.rejections").inc()
                self.obs.events.record(
                    Severity.ERROR, "vod.server", "publish.rejected",
                    title=title, findings=len(blocking),
                )
                raise PlanRejectedError(
                    f"title {title!r} rejected by static verification: "
                    + "; ".join(str(d) for d in blocking),
                    diagnostics=tuple(blocking),
                )
        interpretation.validate()
        self._titles[title] = interpretation
        self._plan_cache.pop(title, None)
        rates = [interpretation.sequence(name).media_descriptor.get("average_data_rate")
                 for name in interpretation.names()]
        if any(rate is None for rate in rates):
            return
        self._rates[title] = sum(map(as_rational, rates), Rational(0))
        scale = lcm(*(rate.denominator for rate in self._rates.values()))
        self._units = {name: rate.numerator * (scale // rate.denominator)
                       for name, rate in self._rates.items()}
        margin = as_rational(self.admission_margin)
        self._limit = self.bandwidth * scale * margin.denominator // margin.numerator

    def _check_interpretation(self, interpretation: Interpretation):
        from repro.analysis.graph import GraphChecker

        per_client = self.bandwidth  # best case: a lone session
        return GraphChecker(
            cost_model=CostModel(bandwidth=per_client),
        ).check_interpretation(interpretation)

    def verify_title(self, title: str):
        """The static checker's full report for a published title."""
        try:
            interpretation = self._titles[title]
        except KeyError:
            raise EngineError(f"unknown title {title!r}") from None
        return self._check_interpretation(interpretation)

    def titles(self) -> list[str]:
        return sorted(self._titles)

    def prefetch(self, title: str) -> int:
        """Warm the storage path beneath ``title``; returns bytes pulled.

        Materializes each of the title's sequences once, pulling every
        referenced page up through the BLOB. Over a buffer-pool-backed
        page store this loads the pool before the first session
        arrives, so cold-start page reads land on the prefetch instead
        of on a paying client; the replay benchmark measures the
        difference.
        """
        try:
            interpretation = self._titles[title]
        except KeyError:
            raise EngineError(f"unknown title {title!r}") from None
        warmed = 0
        with self.obs.tracer.span("vod.prefetch", title=title) as span:
            for name in interpretation.names():
                stream = interpretation.materialize(name)
                warmed += stream.total_size()
            span.set(bytes=warmed)
        metrics = self.obs.metrics
        metrics.counter("vod.prefetches").inc()
        metrics.counter("vod.prefetch_bytes").inc(warmed)
        return warmed

    def required_rate(self, title: str) -> Rational:
        """Mean data rate the title needs: its sequences'
        ``average_data_rate`` descriptors, summed at :meth:`publish`. A
        title with a sequence that declares none raises
        :class:`~repro.errors.ResourceError`."""
        total = self._rates.get(title)
        if total is not None:
            return total
        try:
            interpretation = self._titles[title]
        except KeyError:
            raise EngineError(f"unknown title {title!r}") from None
        unrated = next(name for name in interpretation.names()
                       if interpretation.sequence(name).media_descriptor
                       .get("average_data_rate") is None)
        raise ResourceError(f"{title!r}/{unrated} lacks average_data_rate; "
                            "record it with the Recorder")

    # -- admission + serving ------------------------------------------------------

    def _units_of(self, title: str) -> int:
        """``title``'s rate in admission units, or :meth:`required_rate`'s error."""
        if title not in self._units:
            self.required_rate(title)  # unknown or unrated: it raises
        return self._units[title]

    def admit(self, requests) -> tuple[list[SessionRequest],
                                       list[SessionRequest]]:
        """Greedy admission: accept requests, in order, while the
        aggregate required rate (with margin) fits the bandwidth, on int
        loads (:func:`admit_greedily`). Returns (admitted, rejected)."""
        return admit_greedily(normalize_requests(requests), lambda title: self)

    def serve(self, requests,
              options: ServeOptions | None = None) -> ServerReport:
        """Simulate serving ``requests`` concurrently on the event kernel.

        ``requests`` is a batch of :class:`SessionRequest` objects;
        batch-wide policy comes as a :class:`ServeOptions`.

        With ``enforce_admission`` the admission test runs first;
        without it every request is served (the overload experiment).
        Each admitted session plays its title against an equal share of
        the server bandwidth; at ``"read"`` granularity (or staggered
        arrivals under ``"auto"``) sessions interleave one element per
        event and the bandwidth ledger re-prices reads as sessions come
        and go.

        ``fault_plan`` subjects every session to the same storage
        faults (they share the disk). A session whose playback aborts —
        faults beyond its retry policy's tolerance — is not dropped:
        the server re-admits it in fallback mode (base-layer quality if
        an adaptation policy exists, unbounded skip tolerance) and
        accounts it as *degraded*. Only a session that fails even the
        fallback lands in ``ServerReport.failed``; ``serve`` itself
        never propagates a storage fault (an injected
        :class:`~repro.errors.SimulatedCrash` always propagates — it
        models the whole process dying).

        With ``checkpoint_to`` the server atomically rewrites a
        checkpoint file after *every* session, so a crash mid-serve
        loses at most the in-flight session: :meth:`restore` +
        :meth:`resume` pick the batch up from the last completed one.
        """
        reqs = normalize_requests(requests)
        opts = ServeOptions() if options is None else options
        if not reqs:
            raise EngineError("serve needs at least one request")
        if opts.enforce_admission:
            admitted, rejected = self.admit(reqs)
        else:
            admitted, rejected = reqs, []
        metrics = self.obs.metrics
        metrics.counter("vod.requests").inc(len(reqs))
        metrics.counter("vod.admitted").inc(len(admitted))
        metrics.counter("vod.rejected").inc(len(rejected))
        share = max(1, self.bandwidth // len(admitted)) if admitted else 0
        sessions, failed = self._run_batch(admitted, rejected, opts, share)
        self._batch_progress = None
        report = ServerReport(
            admitted=sessions,
            rejected=rejected,
            bandwidth=self.bandwidth,
            per_client_bandwidth=share,
            failed=failed,
        )
        self._reports.append(report)
        return report

    # -- the kernel batch driver ---------------------------------------------------

    def _build_player(self, share: int, fault_plan, retry_policy,
                      adaptation) -> Player:
        return Player(
            CostModel(bandwidth=share),
            prefetch_depth=self.prefetch_depth,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            adaptation=adaptation,
            obs=self.obs,
        )

    def _player_for(self, request: SessionRequest, default: Player,
                    share: int, opts: ServeOptions) -> Player:
        """The batch player, or a private one for per-request overrides."""
        if request.retry_policy is None and request.adaptation is None:
            return default
        return self._build_player(
            share, opts.fault_plan,
            request.retry_policy or opts.retry_policy,
            request.adaptation or opts.adaptation,
        )

    def _plan_reads(self, player: Player, title: str) -> tuple:
        """Planned reads for a title and their relative deadlines,
        cached per catalog entry.

        Planning an :class:`Interpretation` is pure and observes
        nothing, so the plan and its deadlines are computed once per
        title and shared by every session that plays it, in either drive
        mode, each rescaling the deadlines to its own timebase.
        """
        plan = self._plan_cache.get(title)
        if plan is None:
            reads = player.plan_interpretation(self._titles[title])
            plan = self._plan_cache[title] = (reads, player.deadlines(reads))
        return plan

    @staticmethod
    def _progress_payload(admitted, rejected, sessions, failed,
                          remaining, share: int, at: Rational) -> dict:
        """The batch in flight; ``at`` is the simulated time since the
        batch started."""
        return {
            "requests": [list(r.key) for r in admitted],
            "rejected": [list(r.key) for r in rejected],
            "completed": [
                VodServer._session_summary(s) for s in sessions
            ],
            "failed": [list(f) for f in failed],
            "remaining": [r.to_payload() for r in remaining],
            "share": share,
            "at": str(at),
        }

    def _run_batch(self, admitted: list[SessionRequest],
                   rejected: list[SessionRequest], opts: ServeOptions,
                   share: int, *, resumed: bool = False,
                   failed: list | None = None) -> tuple[
                       list[Session], list[tuple[str, str, str]]]:
        """Drive one admitted batch on the event kernel.

        One :class:`~repro.engine.kernel.SessionMachine` per request,
        all on one :class:`~repro.engine.kernel.EventLoop` over the
        server's clock, built on one timebase fixed before the first
        event: the batch's start and the scrape interval are whole ticks
        of it in both drive modes. Each machine starts with one heap
        push, its arrival's ticks past the instant the batch starts.
        When every request arrives at time zero under ``"auto"``
        granularity, each machine starts at 0 and runs its whole session
        in a single event and the heap pops machines in admitted order,
        so sessions play serially in the order they were admitted.
        Otherwise machines advance one element per event, genuinely
        interleaving on the shared clock, with the
        :class:`~repro.engine.kernel.BandwidthLedger` re-pricing each
        read by the sessions concurrently active; then every arrival
        and deadline, and every unit any of the batch's players (a
        fallback's included) prices a read in, are whole ticks of the
        timebase too.

        With observability disabled and no fault plan, identical
        requests are exact replays of the same pure simulation, so
        whole-session events compute each distinct title once per batch
        and reuse the report — an optimization, not an approximation.
        """
        failed = [] if failed is None else failed
        sessions: list[Session] = []
        if not admitted:
            return sessions, failed
        default_player = self._build_player(
            share, opts.fault_plan, opts.retry_policy, opts.adaptation)
        origin = self._clock.now()
        done = [False] * len(admitted)
        checkpointing = opts.checkpoint_to is not None
        scraping = self.telemetry is not None and self.obs.enabled

        def record_progress(index: int) -> None:
            done[index] = True
            if not checkpointing:
                return
            self._batch_progress = self._progress_payload(
                admitted, rejected, sessions, failed,
                [r for i, r in enumerate(admitted) if not done[i]], share,
                self._clock.now() - origin,
            )
            self.checkpoint_to(opts.checkpoint_to, fs=opts.checkpoint_fs)

        times = [origin, *([self.telemetry.interval] if scraping else [])]
        if opts.granularity == "auto" and all(r.arrival_time == 0 for r in admitted):
            loop = EventLoop(self._clock, lcm(*(t.denominator for t in times)))
            # Whole-session replay memo: sound only when sessions are
            # pure functions of their title (no obs, no shared faults,
            # no per-request policy).
            replayable = not self.obs.enabled and opts.fault_plan is None
            memo: dict[str, Session] = {}

            def runner(request: SessionRequest) -> Session | None:
                self.crash.point("vod.serve.session")
                cacheable = (replayable and request.retry_policy is None
                             and request.adaptation is None)
                if cacheable:
                    cached = memo.get(request.title)
                    if cached is not None:
                        return Session(request.client, request.title, cached.report,
                                       degraded=cached.degraded, resumed=resumed,
                                       request=request)
                session = self._serve_one(
                    request, self._player_for(request, default_player, share, opts),
                    opts, share, failed, resumed,
                )
                if cacheable and session is not None:
                    memo[request.title] = session
                return session

            for index, request in enumerate(admitted):
                def complete(machine, session, index=index):
                    if session is not None:
                        sessions.append(session)
                    record_progress(index)

                SessionMachine(
                    request.key, loop, runner=lambda request=request: runner(request),
                    on_complete=complete,
                ).start(0)
        else:
            players = [self._player_for(r, default_player, share, opts)
                       for r in admitted]
            plans = {r.title: self._plan_reads(p, r.title)
                     for r, p in zip(admitted, players)}
            times += [r.arrival_time for r in admitted]
            for player in {id(p): p for p in players}.values():
                times += player.prices(len(admitted))
            frequency = lcm(*(t.denominator for t in times),
                            *(deadlines.frequency for _, deadlines in plans.values()))
            plans = {title: (reads, deadlines.at(frequency))
                     for title, (reads, deadlines) in plans.items()}
            loop = EventLoop(self._clock, frequency)
            ledger = BandwidthLedger(len(admitted), share, frequency)

            for index, (request, player) in enumerate(zip(admitted, players)):
                reads, deadlines = plans[request.title]
                context = TraceContext.for_session(request.client, request.title)

                def on_start(machine):
                    self.crash.point("vod.serve.session")

                def on_error(machine, exc, request=request, reads=reads,
                             deadlines=deadlines, context=context):
                    with self.obs.trace(context):
                        fallback = self._fall_back(
                            request, exc, opts, share, failed,
                            fell_back=machine.restarts > 0, at=machine.loop.clock.now())
                    if fallback is None:
                        return None
                    return fallback.stepper(reads, ledger, context, deadlines)

                def complete(machine, report, index=index, request=request,
                             context=context):
                    if report is not None:
                        with self.obs.trace(context):
                            self.obs.tracer.record(
                                "vod.session", machine.started_at, machine.finished_at,
                                client=request.client, title=request.title,
                                outcome="fallback" if machine.restarts else "served",
                                underruns=report.underruns)
                        sessions.append(Session(
                            request.client, request.title, report, request=request,
                            degraded=machine.restarts > 0, resumed=resumed))
                    record_progress(index)

                SessionMachine(
                    request.key, loop,
                    stepper_factory=partial(player.stepper, reads, ledger, context,
                                            deadlines),
                    ledger=ledger, on_start=on_start, on_error=on_error,
                    on_complete=complete,
                ).start(to_ticks(request.arrival_time, frequency))
        if scraping:
            self.telemetry.attach(loop, self.obs, self._telemetry_source())
        loop.run()
        if scraping:
            self.telemetry.drain(loop, self.obs, self._telemetry_source())
        self.last_loop_stats = loop.stats()
        return sessions, failed

    def _telemetry_source(self) -> str:
        """This server's name in the telemetry store: its scope prefix
        when it is a fleet shard, else ``"server"``."""
        return getattr(self.obs, "scope", None) or "server"

    def cool_alerts(self) -> None:
        """Scrape this server's idle registry until its alerts cool.

        A server killed mid-batch never reaches that batch's drain, so
        the fleet calls this when it marks the server dead: the scrapes
        run on the server's own clock from the instant it died, and its
        alerts resolve instead of staying active for the fleet's
        lifetime. A no-op without a live telemetry pipeline.
        """
        if self.telemetry is not None and self.obs.enabled:
            self.telemetry.drain(
                EventLoop(self._clock, self.telemetry.interval.denominator),
                self.obs, self._telemetry_source())

    def _serve_one(self, request: SessionRequest, player: Player,
                   opts: ServeOptions, share: int,
                   failed: list[tuple[str, str, str]],
                   resumed: bool) -> Session | None:
        """Play one admitted session whole, falling back on storage faults.

        The cached plan plays with its cached deadlines, rescaled onto
        the player's prices. A :class:`~repro.errors.SimulatedCrash` is
        never a storage fault — it is the machine dying, and must propagate to
        the crash harness."""
        client, title = request.key
        with self.obs.trace(TraceContext.for_session(client, title)), \
                self.obs.tracer.span(
                    "vod.session", client=client, title=title,
                ) as span:
            degraded = False
            while True:
                reads, deadlines = self._plan_reads(player, title)
                deadlines = deadlines.at(lcm(deadlines.frequency,
                                             *(t.denominator for t in player.prices())))
                try:
                    report = player.play(reads, deadlines)
                    break
                except SimulatedCrash:
                    raise
                except MediaModelError as exc:
                    player = self._fall_back(request, exc, opts, share,
                                             failed, fell_back=degraded)
                    if player is None:
                        return None
                    degraded = True
                    span.set(outcome="fallback")
            if not degraded:
                span.set(outcome="served", underruns=report.underruns)
            return Session(client, title, report, degraded=degraded,
                           resumed=resumed, request=request)

    def _fall_back(self, request: SessionRequest, exc: MediaModelError,
                   opts: ServeOptions, share: int,
                   failed: list[tuple[str, str, str]], *, fell_back: bool,
                   at: Rational | None = None) -> Player | None:
        """Fall back once, then fail: both drive modes' fault handling.

        A session's first storage fault re-admits it in fallback mode:
        the returned player has unbounded skip tolerance and, when the
        title is scalable, quality pinned to the base layer so each
        element needs the fewest bytes (and the fewest pages —
        shrinking the fault surface). A fault in the fallback replay
        (``fell_back``) fails the session: it lands in ``failed`` and
        None comes back.

        ``at`` stamps the events. Read granularity passes the kernel
        clock, the simulated instant the fault surfaced; whole-session
        events leave the flight recorder's own clock in charge.
        """
        client, title = request.key
        if fell_back:
            failed.append((client, title, str(exc)))
            self.obs.metrics.counter("vod.failed").inc()
            self.obs.events.record(
                Severity.CRITICAL, "vod.server", "session.failed",
                at=at, client=client, title=title, reason=str(exc),
            )
            return None
        self.obs.metrics.counter("vod.fallbacks").inc()
        self.obs.events.record(
            Severity.WARNING, "vod.server", "session.fallback",
            at=at, client=client, title=title,
        )
        retry_policy = (request.retry_policy or opts.retry_policy
                        or RetryPolicy())
        adaptation = request.adaptation or opts.adaptation
        if adaptation is not None:
            adaptation = adaptation.replace(max_level=adaptation.min_level)
        return self._build_player(
            share, opts.fault_plan,
            retry_policy.replace(abort_skip_fraction=None), adaptation,
        )

    # -- checkpoint / restore -----------------------------------------------------

    @staticmethod
    def _session_summary(session: Session) -> dict:
        return {
            "client": session.client,
            "title": session.title,
            "degraded": session.degraded,
            "resumed": session.resumed,
            "underruns": session.report.underruns,
            "glitches": session.report.glitches,
            "skipped_elements": session.report.skipped_elements,
            "delivered_quality": float(session.report.delivered_quality),
        }

    def checkpoint(self) -> dict:
        """JSON-safe snapshot of everything a failover server needs.

        Catalog titles travel as serialized RMF containers (base64), so
        the checkpoint is self-contained; mid-serve progress (completed
        session summaries, remaining requests, bandwidth share) rides
        along when a serve is running with ``checkpoint_to``.
        Deterministic for a given server state."""
        from repro.storage.container import serialize_container

        titles = {
            title: base64.b64encode(
                serialize_container(interpretation)
            ).decode("ascii")
            for title, interpretation in sorted(self._titles.items())
        }
        reports = self._reports
        return {
            "version": CHECKPOINT_VERSION,
            "config": {
                "bandwidth": self.bandwidth,
                "prefetch_depth": self.prefetch_depth,
                "admission_margin": self.admission_margin,
                "plan_check": self.plan_check,
            },
            "titles": titles,
            "batch": self._batch_progress,
            "aggregate": {
                "serves": len(reports),
                "sessions": sum(r.admitted_count for r in reports),
                "failed": sum(r.failed_sessions() for r in reports),
                "rejected": sum(len(r.rejected) for r in reports),
                "recovered": sum(r.recovered for r in reports),
            },
        }

    def checkpoint_to(self, path: str, fs=None) -> int:
        """Atomically write :meth:`checkpoint` to ``path``; returns bytes.

        Uses the shadow-write + fsync + rename protocol, so a crash
        during the write leaves the previous checkpoint intact."""
        from repro.durability.atomic import atomic_write_bytes

        payload = json.dumps(
            self.checkpoint(), sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        self.crash.point("vod.checkpoint.write")
        atomic_write_bytes(str(path), payload, fs=fs, crash=self.crash)
        self.obs.metrics.counter("vod.checkpoints").inc()
        self.obs.events.record(
            Severity.DEBUG, "vod.server", "checkpoint.written",
            bytes=len(payload),
        )
        return len(payload)

    @classmethod
    def restore(cls, source: str | dict, fs=None,
                obs: Observability | None = None,
                crash: CrashInjector | None = None) -> "VodServer":
        """Rebuild a server from a checkpoint file (or payload dict).

        The catalog is republished through the same static verification
        as the original ``publish`` calls; a checkpoint taken mid-serve
        leaves the interrupted batch pending — call :meth:`resume` to
        finish it. Structural damage raises
        :class:`~repro.errors.CheckpointError`."""
        from repro.durability.atomic import read_bytes
        from repro.storage.container import deserialize_container

        if isinstance(source, dict):
            payload = source
        else:
            try:
                raw = read_bytes(str(source), fs=fs)
            except (OSError, DurabilityError) as exc:
                raise CheckpointError(
                    f"cannot read checkpoint {source}: {exc}"
                ) from exc
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"corrupt checkpoint {source}: {exc}"
                ) from exc
        try:
            version = payload["version"]
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version!r}"
                )
            config = payload["config"]
            server = cls(
                bandwidth=config["bandwidth"],
                prefetch_depth=config["prefetch_depth"],
                admission_margin=config["admission_margin"],
                obs=obs,
                plan_check=config["plan_check"],
                crash=crash,
            )
            for title, encoded in sorted(payload["titles"].items()):
                server.publish(
                    title, deserialize_container(base64.b64decode(encoded))
                )
            server._pending_batch = payload.get("batch")
        except (CheckpointError, MediaModelError):
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"malformed checkpoint payload: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        server.obs.metrics.counter("vod.restores").inc()
        server.obs.events.record(
            Severity.INFO, "vod.server", "checkpoint.restored",
            titles=len(server._titles),
            pending=(0 if server._pending_batch is None
                     else len(server._pending_batch.get("remaining", []))),
        )
        return server

    def adopt_batch(self, batch: dict) -> None:
        """Hand a displaced mid-serve batch to this server for resume.

        The fleet's failover path: a killed shard's last checkpoint
        ``batch`` payload is adopted by a surviving shard (whose
        catalog must cover the remaining titles), then finished with
        :meth:`resume`. Refuses to clobber a batch already pending.
        """
        if self._pending_batch is not None:
            raise CheckpointError(
                "server already has a pending batch to resume"
            )
        if not isinstance(batch, dict):
            raise CheckpointError("batch must be a checkpoint batch dict")
        missing = [
            key for key in
            ("remaining", "rejected", "completed", "failed", "share", "at")
            if key not in batch
        ]
        if missing:
            raise CheckpointError(
                f"malformed batch: missing keys {missing}"
            )
        self._pending_batch = batch

    def resume(self, options: ServeOptions | None = None) -> ServerReport:
        """Finish the serve batch interrupted by the crash.

        Sessions completed before the crash are *not* re-served: they
        arrive as ``ServerReport.recovered``. The remaining requests
        keep their own policies and play at the original bandwidth
        share; one that had not yet arrived when the checkpoint was
        taken waits out the rest of its arrival offset. Each is marked
        ``Session.resumed`` — which the report accounts as degraded
        service (the failover itself is a quality event), feeding
        :meth:`health` and its SLO verdicts."""
        if self._pending_batch is None:
            raise CheckpointError(
                "nothing to resume: this server was not restored from a "
                "mid-serve checkpoint"
            )
        opts = ServeOptions() if options is None else options
        batch = self._pending_batch
        self._pending_batch = None
        try:
            elapsed = Rational(batch["at"])
            remaining = [
                SessionRequest.from_payload(payload, elapsed)
                for payload in batch["remaining"]
            ]
            rejected = [
                SessionRequest(client=c, title=t)
                for c, t in batch["rejected"]
            ]
            failed = [(c, t, r) for c, t, r in batch["failed"]]
            share = int(batch["share"])
            recovered = len(batch["completed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint batch: {type(exc).__name__}: {exc}"
            ) from exc
        missing = sorted(
            {r.title for r in remaining} - set(self._titles)
        )
        if missing:
            raise CheckpointError(
                f"checkpoint batch references unpublished titles: "
                f"{missing}"
            )
        self.obs.metrics.counter("vod.resumes").inc()
        self.obs.events.record(
            Severity.INFO, "vod.server", "serve.resumed",
            remaining=len(remaining), recovered=recovered,
        )
        sessions: list[Session] = []
        if remaining:
            share = max(1, share)
            sessions, failed = self._run_batch(
                remaining, rejected, opts, share,
                resumed=True, failed=failed,
            )
        report = ServerReport(
            admitted=sessions,
            rejected=rejected,
            bandwidth=self.bandwidth,
            per_client_bandwidth=share,
            failed=failed,
            recovered=recovered,
        )
        self._reports.append(report)
        return report

    # -- health ------------------------------------------------------------------

    def health(self) -> ServerHealth:
        """The server's aggregate health across every ``serve`` so far.

        Folds all session outcomes, the worst SLO verdict per
        objective, the buffer pool's hit ratio (from its exported gauge,
        when the pool reports into the server's sink), the pipeline's
        dominant stage and the tail of ERROR-and-above flight-recorder
        events into one :class:`ServerHealth`. A pure function of the
        recorded state — same-seed runs report identical health.
        """
        reports = self._reports
        sessions = sum(r.admitted_count for r in reports)
        clean = sum(r.clean_sessions() for r in reports)
        underrun = sum(r.underrun_sessions() for r in reports)
        degraded = sum(r.degraded_sessions() for r in reports)
        failed = sum(r.failed_sessions() for r in reports)
        rejected = sum(len(r.rejected) for r in reports)
        slo = tuple(worst_verdicts(
            s.report.slo for r in reports for s in r.admitted
        ))
        ratios: dict[str, float] = {}
        if self.obs.enabled and "cache.pool.hit_ratio" in self.obs.metrics:
            pool_ratio = self.obs.metrics.get("cache.pool.hit_ratio").value()
            if pool_ratio is not None:
                ratios["pool"] = pool_ratio
        recent = tuple(
            event.export()
            for event in self.obs.events.recent(
                10, min_severity=Severity.ERROR
            )
        )
        alerts: tuple[dict, ...] = ()
        if self.telemetry is not None:
            alerts = tuple(
                alert.export() for alert in
                self.telemetry.alerts.for_source(self._telemetry_source())
            )
        firing = any(a["state"] == "firing" for a in alerts)
        if failed or any(
                v.severity >= Severity.CRITICAL for v in slo):
            status = "critical"
        elif (degraded or underrun or rejected or firing
                or any(not v.ok for v in slo)):
            status = "degraded"
        else:
            status = "ok"
        return ServerHealth(
            status=status,
            sessions=sessions,
            clean=clean,
            underrun=underrun,
            degraded=degraded,
            failed=failed,
            rejected=rejected,
            slo=slo,
            cache_hit_ratios=ratios,
            dominant_stage=profile_stages(self.obs).dominant_stage(),
            recent_critical=recent,
            alerts=alerts,
        )

    def capacity(self, title: str) -> int:
        """How many concurrent sessions of ``title`` the admission test
        accepts — the server's nominal capacity for that title: the
        admission limit over the title's units (:meth:`publish`)."""
        units = self._units_of(title)
        if units <= 0:
            raise ResourceError(f"{title!r} declares a zero data rate")
        return self._limit // units
