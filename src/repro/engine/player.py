"""Playback of interpreted media against a storage/decode cost model.

"Using a BLOB data type it is possible to read and write time-based media
but ... the more relevant operations of 'play' and 'record' have no
meaning." (§1.2) The player gives "play" meaning: it walks an
interpretation's placement tables in presentation order, charges each
element read/decode costs from a :class:`CostModel`, and reports whether
deadlines were met — startup delay, underruns, jitter, and the data rate
the storage system must sustain.

Everything is simulated with exact rational arithmetic; no wall-clock
time is involved, so reports are reproducible to the bit.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.core.composition import MultimediaObject
from repro.core.interpretation import Interpretation
from repro.core.rational import Rational, as_rational
from repro.engine.buffers import simulate_prefetch
from repro.errors import EngineError, PlaybackAbortError
from repro.faults.plan import FaultPlan
from repro.obs.events import Severity
from repro.obs.instrument import NULL_OBS, Observability
from repro.obs.profile import STAGE_BUCKETS, STAGE_METRIC
from repro.obs.slo import SloPolicy, SloVerdict, default_slo_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.derivations import DerivationCache

#: Fixed lateness-histogram boundaries (seconds). Fixed so per-stream
#: lateness distributions are comparable across runs and workloads.
LATENESS_BUCKETS: tuple[float, ...] = (
    0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
)


@dataclass(frozen=True)
class CostModel:
    """Storage and decode cost parameters.

    ``bandwidth`` — bytes/second of sequential read;
    ``seek_time`` — seconds charged when a read is not contiguous with
    the previous one;
    ``decode_rate`` — bytes/second of decode work (None = free).

    Defaults approximate a 1994-era single-speed-ish optical drive so the
    paper's data-rate arithmetic lands in a plausible regime.
    """

    bandwidth: Rational = Rational(1_500_000)
    seek_time: Rational = Rational(1, 100)
    decode_rate: Rational | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bandwidth", as_rational(self.bandwidth))
        object.__setattr__(self, "seek_time", as_rational(self.seek_time))
        if self.decode_rate is not None:
            object.__setattr__(self, "decode_rate", as_rational(self.decode_rate))
        if self.bandwidth <= 0:
            raise EngineError("bandwidth must be positive")
        if self.seek_time < 0:
            raise EngineError(
                f"seek_time must be non-negative, got {self.seek_time}"
            )
        if self.decode_rate is not None and self.decode_rate <= 0:
            raise EngineError(
                f"decode_rate must be positive, got {self.decode_rate}"
            )

    def element_cost(self, size: int, contiguous: bool,
                     bandwidth_factor: Rational | None = None) -> Rational:
        """Seconds to read (and decode) ``size`` bytes.

        ``bandwidth_factor`` scales only the transfer term — a degraded
        link slows the bytes, not the head movement or the decoder.
        """
        bandwidth = self.bandwidth
        if bandwidth_factor is not None and bandwidth_factor != 1:
            bandwidth = bandwidth * bandwidth_factor
        cost = Rational(size) / bandwidth
        if not contiguous:
            cost += self.seek_time
        if self.decode_rate:
            cost += Rational(size) / self.decode_rate
        return cost

    def cost_breakdown(self, size: int, contiguous: bool,
                       bandwidth_factor: Rational | None = None,
                       ) -> tuple[Rational, Rational]:
        """``element_cost`` split for stage attribution.

        Returns ``(read_seconds, decode_seconds)`` where the read term
        is seek + transfer; their sum equals :meth:`element_cost` for
        the same arguments — the profiler never invents time the engine
        didn't charge.
        """
        bandwidth = self.bandwidth
        if bandwidth_factor is not None and bandwidth_factor != 1:
            bandwidth = bandwidth * bandwidth_factor
        read = Rational(size) / bandwidth
        if not contiguous:
            read += self.seek_time
        decode = (Rational(size) / self.decode_rate if self.decode_rate
                  else Rational(0))
        return read, decode

    def replace(self, **overrides) -> "CostModel":
        """A copy with ``overrides`` applied (and re-validated)."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True, kw_only=True)
class RetryPolicy:
    """How playback responds to injected read faults.

    A failed attempt is retried up to ``max_retries`` times; each retry
    charges the re-read *plus* a backoff pause, all as simulated time,
    so recovery shows up as lateness and underruns rather than
    disappearing into a wall-clock sleep. When retries exhaust (or the
    page is permanently bad) the element is skipped with a glitch.
    ``abort_skip_fraction`` bounds tolerance: if more than that fraction
    of elements are skipped, playback raises
    :class:`~repro.errors.PlaybackAbortError` instead of presenting a
    slideshow.
    """

    max_retries: int = 3
    backoff: Rational = Rational(1, 200)
    backoff_factor: Rational = Rational(2)
    abort_skip_fraction: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backoff", as_rational(self.backoff))
        object.__setattr__(
            self, "backoff_factor", as_rational(self.backoff_factor)
        )
        if self.max_retries < 0:
            raise EngineError("max_retries must be non-negative")
        if self.backoff < 0:
            raise EngineError("backoff must be non-negative")
        if self.backoff_factor < 1:
            raise EngineError("backoff_factor must be >= 1")
        if (self.abort_skip_fraction is not None
                and not 0 < self.abort_skip_fraction <= 1):
            raise EngineError("abort_skip_fraction must be in (0, 1]")

    def backoff_cost(self, attempt: int) -> Rational:
        """Simulated pause before retrying after failed attempt ``attempt``."""
        return self.backoff * self.backoff_factor ** attempt

    def replace(self, **overrides) -> "RetryPolicy":
        """A copy with ``overrides`` applied (and re-validated)."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True, kw_only=True)
class AdaptationPolicy:
    """Quality degradation for scalable streams (§2.2, Definition 5).

    A scalable element is stored base-layer-first, so a player can read
    a prefix and present reduced fidelity. ``fractions[k]`` is the
    fraction of the element's bytes needed to present layer ``k``
    (defaults to a linear ramp); under a degraded bandwidth window the
    player picks the highest layer whose fraction fits the available
    factor, never dropping below ``min_level``. ``sequences`` restricts
    adaptation to the named sequences (None adapts every stream).
    """

    levels: int
    fractions: tuple[Rational, ...] | None = None
    sequences: frozenset[str] | None = None
    min_level: int = 0
    max_level: int | None = None

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise EngineError("levels must be >= 1")
        if not 0 <= self.min_level < self.levels:
            raise EngineError(
                f"min_level must be in [0, {self.levels}), got {self.min_level}"
            )
        if (self.max_level is not None
                and not self.min_level <= self.max_level < self.levels):
            raise EngineError(
                f"max_level must be in [{self.min_level}, {self.levels}), "
                f"got {self.max_level}"
            )
        if self.fractions is not None:
            fractions = tuple(as_rational(f) for f in self.fractions)
            if len(fractions) != self.levels:
                raise EngineError(
                    f"need {self.levels} fractions, got {len(fractions)}"
                )
            if any(not 0 < f <= 1 for f in fractions):
                raise EngineError("fractions must be in (0, 1]")
            if any(a > b for a, b in zip(fractions, fractions[1:])):
                raise EngineError("fractions must be non-decreasing")
            if fractions[-1] != 1:
                raise EngineError("top level must read the full element")
            object.__setattr__(self, "fractions", fractions)
        if self.sequences is not None:
            object.__setattr__(self, "sequences", frozenset(self.sequences))

    def fraction(self, level: int) -> Rational:
        if self.fractions is not None:
            return self.fractions[level]
        return Rational(level + 1, self.levels)

    def level_for(self, bandwidth_factor: Rational) -> int:
        """Highest layer whose byte fraction fits the bandwidth factor.

        ``max_level`` caps the search — a server in fallback mode pins
        quality down by lowering the cap, not by lying about bandwidth.
        """
        top = self.levels - 1 if self.max_level is None else self.max_level
        level = self.min_level
        for candidate in range(top, self.min_level - 1, -1):
            if self.fraction(candidate) <= bandwidth_factor:
                level = candidate
                break
        return level

    def applies_to(self, label: str) -> bool:
        if self.sequences is None:
            return True
        name = label.split("[", 1)[0]
        return name in self.sequences

    def replace(self, **overrides) -> "AdaptationPolicy":
        """A copy with ``overrides`` applied (and re-validated)."""
        return dataclasses.replace(self, **overrides)


@dataclass
class PlaybackReport:
    """Outcome of one simulated playback.

    ``per_read`` holds (label, deadline, lateness) per element in
    presentation order, enabling inter-stream skew analysis with
    :func:`repro.engine.sync.measure_sync`.
    """

    element_count: int
    duration: Rational
    required_rate: Rational
    startup_delay: Rational
    underruns: int
    underrun_fraction: float
    max_lateness: Rational
    jitter: Rational
    prefetch_depth: int
    seeks: int
    per_read: list[tuple[str, Rational, Rational]] = field(
        default_factory=list
    )
    retries: int = 0
    skipped_elements: int = 0
    glitches: int = 0
    delivered_quality: Rational = Rational(1)
    #: Metric snapshot captured at report time when the player ran with
    #: an observability sink (``Player(obs=...)``); None otherwise.
    metrics: dict | None = None
    #: Per-session SLO verdicts, populated when the player ran with an
    #: SLO policy (explicit ``slo_policy=`` or the default policy under
    #: an observability sink).
    slo: list[SloVerdict] = field(default_factory=list)
    #: Static plan-check findings (:class:`repro.analysis.Diagnostic`)
    #: that did not block the plan under the player's ``plan_check``
    #: policy — e.g. rate-infeasibility warnings in the default mode.
    plan_diagnostics: list = field(default_factory=list)

    def slo_ok(self) -> bool:
        """Did this session meet every evaluated SLO? (Vacuously true
        when no policy ran.)"""
        return all(v.ok for v in self.slo)

    def slo_violations(self) -> list[SloVerdict]:
        return [v for v in self.slo if not v.ok]

    def stream_lateness(self, prefix: str) -> tuple[list[Rational], list[Rational]]:
        """(lateness, deadlines) of reads of the sequence named ``prefix``.

        Labels are ``sequence[n]``; matching anchors on the ``[`` so the
        sequence ``"audio"`` never swallows ``"audio2"``'s reads. A
        prefix already containing ``[`` is matched verbatim. Both lists
        are deadline-ordered, ready for
        :func:`~repro.engine.sync.measure_sync`.
        """
        needle = prefix if "[" in prefix else f"{prefix}["
        lateness = []
        deadlines = []
        for label, deadline, late in self.per_read:
            if label.startswith(needle):
                deadlines.append(deadline)
                lateness.append(late)
        return lateness, deadlines

    def summary(self) -> str:
        text = (
            f"{self.element_count} elements over "
            f"{self.duration.to_timestamp()}; required rate "
            f"{float(self.required_rate) / 1024:.0f} KiB/s; startup "
            f"{float(self.startup_delay) * 1000:.1f} ms; "
            f"{self.underruns} underruns ({self.underrun_fraction:.1%}); "
            f"jitter {float(self.jitter) * 1000:.2f} ms; {self.seeks} seeks"
        )
        if self.retries or self.skipped_elements or self.delivered_quality != 1:
            text += (
                f"; {self.retries} retries, {self.skipped_elements} skipped "
                f"({self.glitches} glitches), delivered quality "
                f"{float(self.delivered_quality):.0%}"
            )
        if self.slo:
            violated = self.slo_violations()
            met = len(self.slo) - len(violated)
            text += f"; SLO {met}/{len(self.slo)} met"
            if violated:
                text += " (" + ", ".join(v.slo for v in violated) + " violated)"
        if self.metrics:
            text += "\n  " + self.metrics_summary()
        return text

    def metrics_summary(self) -> str:
        """Compact one-line rendering of the embedded counter snapshot."""
        if not self.metrics:
            return "metrics: (none captured)"
        parts = []
        for name in sorted(self.metrics):
            body = self.metrics[name]
            if body.get("type") != "counter":
                continue
            total = sum(entry["value"] for entry in body["series"])
            parts.append(f"{name}={total}")
        return "metrics: " + (" ".join(parts) or "(no counters)")


@dataclass(frozen=True, slots=True)
class _PlannedRead:
    label: str
    offset: int
    size: int
    deadline: Rational


class Player:
    """Simulates synchronized playback of interpreted sequences."""

    def __init__(self, cost_model: CostModel | None = None,
                 prefetch_depth: int = 4, rate=1,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 adaptation: AdaptationPolicy | None = None,
                 derivation_cache: "DerivationCache | None" = None,
                 obs: Observability | None = None,
                 slo_policy: SloPolicy | None = None,
                 plan_check: str = "check",
                 plan_checker=None):
        """``rate`` is the playback rate: 2 plays double speed (deadlines
        arrive twice as fast, so the storage system must sustain twice
        the data rate); rates in (0, 1) play slow motion. Reverse
        playback is a derivation (``video-reverse``), not a negative
        rate, because read order must still move forward through time.

        ``fault_plan`` makes the simulated storage path misbehave per
        the plan's schedule; ``retry_policy`` (default
        :class:`RetryPolicy`) governs recovery and ``adaptation``
        trades fidelity for feasibility on scalable streams. Without a
        fault plan the simulation is exactly the clean happy path.

        ``derivation_cache`` routes the expansion of derived components
        (when planning a multimedia object) through a shared
        :class:`~repro.cache.derivations.DerivationCache`, so replaying
        the same composition stops recomputing its derived objects.

        ``obs`` attaches an observability sink: counters and lateness
        histograms per run, retry/glitch/adaptation spans and
        flight-recorder events stamped with the *simulated* clock, and
        per-stage time attribution into ``pipeline.stage_seconds`` —
        all bit-identical for identical runs.

        ``slo_policy`` evaluates service-level objectives against every
        report; with an observability sink but no explicit policy the
        stock :func:`~repro.obs.slo.default_slo_policy` runs, and every
        non-OK verdict lands in the flight recorder.

        ``plan_check`` gates :meth:`plan_multimedia` behind the static
        graph checker (:mod:`repro.analysis.graph`) *before any page is
        read*: ``"check"`` (the default) raises
        :class:`~repro.errors.PlanRejectedError` on structurally
        unexecutable plans (cycles, dangling inputs, kind mismatches)
        and attaches everything else to the report's
        ``plan_diagnostics``; ``"strict"`` also rejects statically
        infeasible plans (MG008/MG009 at error severity); ``"off"``
        skips the check. ``plan_checker`` overrides the default
        :class:`~repro.analysis.graph.GraphChecker` (which prices
        feasibility from this player's cost model).
        """
        self.cost_model = cost_model or CostModel()
        if prefetch_depth < 1:
            raise EngineError("prefetch depth must be >= 1")
        self.prefetch_depth = prefetch_depth
        self.rate = as_rational(rate)
        if self.rate <= 0:
            raise EngineError(f"playback rate must be positive, got {self.rate}")
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or RetryPolicy()
        self.adaptation = adaptation
        self.derivation_cache = derivation_cache
        self.obs = NULL_OBS if obs is None else obs
        self.slo_policy = slo_policy
        from repro.analysis.graph import PLAN_POLICIES

        if plan_check not in PLAN_POLICIES:
            raise EngineError(
                f"plan_check must be one of {PLAN_POLICIES}, "
                f"got {plan_check!r}"
            )
        self.plan_check = plan_check
        self.plan_checker = plan_checker
        self._plan_findings: list = []

    # -- planning -------------------------------------------------------------

    def plan_interpretation(
        self,
        interpretation: Interpretation,
        names: list[str] | None = None,
        offsets: dict[str, Rational] | None = None,
    ) -> list[_PlannedRead]:
        """Presentation-ordered reads for the named sequences.

        ``offsets`` optionally shifts each sequence on the shared
        timeline (temporal composition of interpreted components).
        """
        names = names if names is not None else interpretation.names()
        offsets = offsets or {}
        reads: list[_PlannedRead] = []
        for name in names:
            sequence = interpretation.sequence(name)
            base = as_rational(offsets.get(name, 0))
            for entry in sequence:
                deadline = base + sequence.time_system.to_continuous(entry.start)
                reads.append(_PlannedRead(
                    label=f"{name}[{entry.element_number}]",
                    offset=entry.blob_offset,
                    size=entry.size,
                    deadline=deadline,
                ))
        reads.sort(key=lambda r: (r.deadline, r.offset))
        return reads

    def verify_plan(self, multimedia: MultimediaObject):
        """Statically verify ``multimedia`` per the ``plan_check`` policy.

        Runs the media-graph checker without expanding anything — no
        derivation runs, no BLOB page is read. Raises
        :class:`~repro.errors.PlanRejectedError` when the policy blocks
        the plan; otherwise returns the
        :class:`~repro.analysis.diagnostics.DiagnosticReport` (whose
        non-blocking findings the next :meth:`play` attaches to its
        report). Returns None when the policy is ``"off"``.
        """
        if self.plan_check == "off":
            self._plan_findings = []
            return None
        from repro.analysis.graph import GraphChecker, blocking_diagnostics
        from repro.errors import PlanRejectedError

        checker = self.plan_checker or GraphChecker(
            cost_model=self.cost_model
        )
        report = checker.check_multimedia(multimedia)
        blocking = blocking_diagnostics(report, self.plan_check)
        if self.obs.enabled:
            for diagnostic in report:
                self.obs.events.record(
                    diagnostic.severity, "engine.plan_check",
                    f"plan.{diagnostic.rule}", at=Rational(0),
                    location=diagnostic.location,
                    message=diagnostic.message,
                )
        if blocking:
            self.obs.metrics.counter("engine.plan.rejections").inc()
            raise PlanRejectedError(
                f"plan for {multimedia.name!r} rejected by static "
                f"verification ({self.plan_check} policy): "
                + "; ".join(str(d) for d in blocking),
                diagnostics=tuple(blocking),
            )
        self._plan_findings = list(report)
        return report

    def plan_multimedia(self, multimedia: MultimediaObject) -> list[_PlannedRead]:
        """Presentation-ordered reads for a composed multimedia object.

        The static plan check (:meth:`verify_plan`) runs first, before
        any expansion or page read. Components are then flattened to
        leaf media objects; each leaf's stream supplies element sizes
        and timing, shifted by its composition offset. Leaves without
        in-memory streams (derived, unexpanded) are expanded via their
        normal access path — or through the player's
        :class:`DerivationCache` when one is attached, so replanning
        the same composition is a cache hit.
        """
        self.verify_plan(multimedia)
        instrumented = self.obs.enabled
        stage_hist = self._stage_histogram() if instrumented else None
        reads: list[_PlannedRead] = []
        synthetic_offset = 0
        for label, obj, interval in multimedia.flatten():
            if not obj.media_type.kind.is_time_based:
                continue
            if self.derivation_cache is not None and obj.is_derived:
                cached = obj in self.derivation_cache
                stream = self.derivation_cache.materialize(obj).stream()
            else:
                cached = obj.is_derived and obj.is_materialized
                stream = obj.stream()
            if stage_hist is not None:
                # Composition itself is pointer arithmetic (§5): count
                # the component, charge zero simulated time.
                stage_hist.observe(0.0, stage="compose")
                if obj.is_derived:
                    estimate = 0.0 if cached else self._expand_cost_estimate(
                        obj, stream.total_size()
                    )
                    stage_hist.observe(estimate, stage="derivation_expand")
                    self.obs.tracer.event(
                        "engine.expand", component=label,
                        cached=cached, cost_seconds=estimate,
                    )
            for index, t in enumerate(stream):
                deadline = interval.start + stream.time_system.to_continuous(
                    t.start - stream.start
                )
                reads.append(_PlannedRead(
                    label=f"{label}[{index}]",
                    offset=synthetic_offset,
                    size=t.element.size,
                    deadline=deadline,
                ))
                synthetic_offset += t.element.size
        reads.sort(key=lambda r: (r.deadline, r.offset))
        return reads

    def _stage_histogram(self):
        """The shared per-stage attribution histogram (instrumented only)."""
        return self.obs.metrics.histogram(STAGE_METRIC, buckets=STAGE_BUCKETS)

    def _expand_cost_estimate(self, obj, expanded_size: int) -> float:
        """CostModel seconds to materialize a derived component: one
        non-contiguous read of the inputs' bytes plus the expanded
        bytes — the same estimate the derivation cache prices benefit
        with."""
        from repro.cache.derivations import object_bytes

        input_bytes = sum(
            object_bytes(inp) for inp in obj.derivation_object.inputs
        )
        return float(self.cost_model.element_cost(
            input_bytes + expanded_size, contiguous=False,
        ))

    # -- playback -------------------------------------------------------------

    def play(self, target, names: list[str] | None = None,
             offsets: dict[str, Rational] | None = None) -> PlaybackReport:
        """Simulate playback of ``target``.

        Polymorphic front door: ``target`` may be an
        :class:`~repro.core.interpretation.Interpretation` (optionally
        restricted to ``names`` and shifted by per-sequence
        ``offsets``), a :class:`~repro.core.composition.MultimediaObject`,
        or a pre-planned read list from :meth:`plan_interpretation` /
        :meth:`plan_multimedia`.
        """
        if isinstance(target, Interpretation):
            return self._run(self.plan_interpretation(target, names, offsets))
        if names is not None or offsets is not None:
            raise EngineError(
                "names/offsets only apply when playing an Interpretation"
            )
        if isinstance(target, MultimediaObject):
            report = self._run(self.plan_multimedia(target))
            report.plan_diagnostics = list(self._plan_findings)
            return report
        if isinstance(target, (list, tuple)):
            reads = list(target)
            if all(isinstance(r, _PlannedRead) for r in reads):
                return self._run(reads)
        raise EngineError(
            f"cannot play {type(target).__name__}; expected an "
            "Interpretation, a MultimediaObject, or a list of planned reads"
        )

    def _run(self, reads: list[_PlannedRead]) -> PlaybackReport:
        """Drain :meth:`stepper` in one go (the seed behaviour)."""
        stepper = self.stepper(reads)
        while True:
            try:
                next(stepper)
            except StopIteration as stop:
                return stop.value

    def stepper(self, reads: list[_PlannedRead], share_factor=None):
        """The playback simulation as a resumable generator.

        Yields the simulated seconds each element consumed (read +
        decode + any retries and backoff) in presentation order, and
        *returns* the finished :class:`PlaybackReport` — the event
        kernel (:mod:`repro.engine.kernel`) drives one element per
        scheduled event, while :meth:`play` drains the generator in one
        loop. Both paths execute the same arithmetic in the same order,
        so their reports are identical by construction.

        ``share_factor`` (optional) is a zero-argument callable sampled
        before each element: a bandwidth multiplier over this player's
        cost-model bandwidth, letting a shared
        :class:`~repro.engine.kernel.BandwidthLedger` re-price reads as
        concurrent sessions come and go. None (the default) keeps the
        cost model's static bandwidth — the seed contract.

        Without a fault plan each element is one read. With one, every
        recovery action costs simulated time: a failed attempt charges
        the full read it wasted plus the policy's backoff, so faults
        surface as startup delay, lateness and underruns. An element
        whose pages stay unreadable is skipped (a glitch — runs of
        consecutive skips merge into one); scalable reads shrink to the
        layer prefix that fits degraded bandwidth. The walk mirrors
        :class:`~repro.faults.pager.FaultyPager`'s bookkeeping — visits
        per page, global read index — so the same plan produces the
        same storage behaviour at either enforcement point. The plan's
        per-read bandwidth factor is scaled by ``share_factor``, so
        dynamic processor sharing and injected degradation compose into
        one multiplier (adaptation sees the combined factor too: more
        bandwidth, higher layer).
        """
        if not reads:
            return PlaybackReport(
                element_count=0, duration=Rational(0),
                required_rate=Rational(0), startup_delay=Rational(0),
                underruns=0, underrun_fraction=0.0,
                max_lateness=Rational(0), jitter=Rational(0),
                prefetch_depth=self.prefetch_depth, seeks=0,
            )
        cost_model = self.cost_model
        plan = self.fault_plan
        policy = self.retry_policy
        adaptation = self.adaptation
        instrumented = self.obs.enabled
        tracer = self.obs.tracer if instrumented else None
        events = self.obs.events if instrumented else None
        stage_hist = self._stage_histogram() if instrumented else None
        clock = Rational(0)
        cursor: int | None = None
        seeks = 0
        retries = 0
        skipped = 0
        glitches = 0
        in_glitch = False
        visits: Counter = Counter()
        presented: list[_PlannedRead] = []
        production: list[Rational] = []
        quality_sum = Rational(0)
        adapted_reads = 0
        total_bytes = 0

        for index, read in enumerate(reads):
            size = read.size
            if plan is None:
                factor = share_factor() if share_factor is not None else None
            else:
                element_start = clock
                delivered_share: Rational | None = None
                factor = plan.bandwidth_factor(index)
                if share_factor is not None:
                    factor = factor * share_factor()
                latency = plan.extra_latency(index)
                if (adaptation is not None and read.size > 0
                        and adaptation.applies_to(read.label)):
                    adapted_reads += 1
                    level = adaptation.level_for(factor)
                    size = min(
                        read.size,
                        math.ceil(Rational(read.size)
                                  * adaptation.fraction(level)),
                    )
                    delivered_share = Rational(level + 1, adaptation.levels)
                    if instrumented and level < adaptation.levels - 1:
                        tracer.event(
                            "engine.adaptation", at=clock,
                            element=read.label, level=level, bytes=size,
                        )
                        events.record(
                            Severity.INFO, "engine.player",
                            "quality.adapted", at=clock,
                            element=read.label, level=level, bytes=size,
                        )
            contiguous = cursor is not None and read.offset == cursor
            if cursor is not None and not contiguous:
                seeks += 1
            cursor = read.offset + size
            if stage_hist is None:
                cost = cost_model.element_cost(
                    size, contiguous, bandwidth_factor=factor
                )
            else:
                read_part, decode_part = cost_model.cost_breakdown(
                    size, contiguous, bandwidth_factor=factor
                )
                cost = read_part + decode_part

            if plan is None:
                # A clean element is one read: no page walk, no retries.
                clock += cost
                elapsed = cost
            else:
                # Injected latency delays every attempt's page read.
                cost += latency
                if stage_hist is not None:
                    read_part += latency
                success = False
                pages = plan.pages_of(read.offset, size)
                if any(plan.is_bad_page(p) for p in pages):
                    # Permanently bad region: one probing attempt
                    # discovers it; retrying cannot help, so skip now.
                    self.obs.metrics.counter("faults.injected").inc(
                        kind="bad_page"
                    )
                    probe_start = clock
                    clock += cost
                    if instrumented:
                        stage_hist.observe(float(cost), stage="deliver")
                        tracer.record(
                            "engine.glitch", probe_start, clock,
                            element=read.label, reason="bad_page",
                        )
                        events.record(
                            Severity.ERROR, "engine.player",
                            "element.skipped", at=clock,
                            element=read.label, reason="bad_page",
                        )
                else:
                    for attempt in range(policy.max_retries + 1):
                        failed = False
                        fault_kind = None
                        for page_no in pages:
                            visit = visits[page_no]
                            visits[page_no] += 1
                            # A transient error aborts the gather at this
                            # page; a corrupted visit completes but fails
                            # verification. Either way the whole element
                            # is re-read.
                            if plan.is_transient(page_no, visit):
                                self.obs.metrics.counter(
                                    "faults.injected"
                                ).inc(kind="transient")
                                failed = True
                                fault_kind = "transient"
                                break
                            if plan.is_corrupted(page_no, visit):
                                self.obs.metrics.counter(
                                    "faults.injected"
                                ).inc(kind="corrupted")
                                failed = True
                                fault_kind = "corrupted"
                                break
                        attempt_start = clock
                        clock += cost
                        if not failed:
                            success = True
                            break
                        if attempt < policy.max_retries:
                            clock += policy.backoff_cost(attempt)
                            retries += 1
                            if instrumented:
                                stage_hist.observe(
                                    float(clock - attempt_start),
                                    stage="deliver",
                                )
                                tracer.record(
                                    "engine.retry", attempt_start, clock,
                                    element=read.label, attempt=attempt,
                                )
                                events.record(
                                    Severity.WARNING, "engine.player",
                                    "read.retry", at=clock,
                                    element=read.label, attempt=attempt,
                                    fault=fault_kind,
                                )
                        elif instrumented:
                            stage_hist.observe(float(cost), stage="deliver")
                            tracer.record(
                                "engine.glitch", attempt_start, clock,
                                element=read.label,
                                reason="retries_exhausted",
                            )
                            events.record(
                                Severity.ERROR, "engine.player",
                                "element.skipped", at=clock,
                                element=read.label,
                                reason="retries_exhausted",
                                fault=fault_kind,
                            )
                elapsed = clock - element_start
                if not success:
                    skipped += 1
                    if not in_glitch:
                        glitches += 1
                    in_glitch = True
                    yield elapsed
                    continue
                if delivered_share is not None:
                    quality_sum += delivered_share
                in_glitch = False
            if stage_hist is not None:
                stage_hist.observe(float(read_part), stage="page_read")
                if decode_part:
                    stage_hist.observe(float(decode_part), stage="decode")
            presented.append(read)
            production.append(clock)
            total_bytes += size
            yield elapsed

        if (policy.abort_skip_fraction is not None
                and skipped > policy.abort_skip_fraction * len(reads)):
            self.obs.metrics.counter("engine.play.aborts").inc()
            if instrumented:
                events.record(
                    Severity.CRITICAL, "engine.player", "playback.aborted",
                    at=clock, skipped=skipped, elements=len(reads),
                )
            raise PlaybackAbortError(
                f"skipped {skipped}/{len(reads)} elements, beyond the "
                f"policy's tolerance of {policy.abort_skip_fraction:.0%}"
            )

        first_deadline = reads[0].deadline
        # At rate r, media time d is presented at reference time d / r.
        deadlines = [
            (r.deadline - first_deadline) / self.rate for r in presented
        ]
        prefetch = simulate_prefetch(production, deadlines, self.prefetch_depth)
        if skipped:
            # The timeline is the content's: skipping an element glitches
            # the presentation but does not shorten the programme.
            duration = max(
                (r.deadline - first_deadline) / self.rate for r in reads
            )
        else:
            duration = max(deadlines)
        required = (
            Rational(total_bytes) / duration if duration > 0 else Rational(0)
        )
        lateness = [
            max(p - (prefetch.startup_delay + d), Rational(0))
            for p, d in zip(production, deadlines)
        ]
        delivered_quality = (
            quality_sum / adapted_reads if adapted_reads else Rational(1)
        )
        report = PlaybackReport(
            element_count=len(presented),
            duration=duration,
            required_rate=required,
            startup_delay=prefetch.startup_delay,
            underruns=prefetch.underruns,
            underrun_fraction=prefetch.underrun_fraction,
            max_lateness=max(lateness) if lateness else Rational(0),
            jitter=(max(lateness) - min(lateness)) if lateness else Rational(0),
            prefetch_depth=self.prefetch_depth,
            seeks=seeks,
            per_read=[
                (read.label, deadline, late)
                for read, deadline, late in zip(presented, deadlines, lateness)
            ],
            retries=retries,
            skipped_elements=skipped,
            glitches=glitches,
            delivered_quality=delivered_quality,
        )
        self._evaluate_slo(report, at=clock)
        if instrumented:
            mode = "clean" if plan is None else "faulted"
            counts = {} if plan is None else {"presented": len(presented)}
            tracer.record(
                "engine.play", Rational(0), clock, mode=mode,
                elements=len(reads), bytes=total_bytes, **counts,
            )
            self._record_metrics(report, total_bytes, prefetch, mode)
        return report

    def _record_metrics(self, report: PlaybackReport, total_bytes: int,
                        prefetch, mode: str) -> None:
        """Fold one run's outcome into the attached metrics registry and
        embed the resulting snapshot in the report."""
        metrics = self.obs.metrics
        metrics.counter("engine.play.runs").inc(mode=mode)
        metrics.counter("engine.play.elements").inc(report.element_count)
        metrics.counter("engine.play.bytes").inc(total_bytes)
        metrics.counter("engine.play.seeks").inc(report.seeks)
        metrics.counter("engine.play.underruns").inc(report.underruns)
        if report.retries:
            metrics.counter("engine.play.retries").inc(report.retries)
        if report.skipped_elements:
            metrics.counter("engine.play.skips").inc(report.skipped_elements)
        if report.glitches:
            metrics.counter("engine.play.glitches").inc(report.glitches)
        metrics.gauge("engine.play.buffer_high_water").set_max(
            prefetch.high_water
        )
        stage_hist = self._stage_histogram()
        stage_hist.observe(float(prefetch.startup_delay), stage="deliver")
        lateness = metrics.histogram(
            "engine.play.lateness_seconds", buckets=LATENESS_BUCKETS
        )
        for label, deadline, late in report.per_read:
            lateness.observe(float(late), sequence=label.split("[", 1)[0])
            if late > 0:
                self.obs.events.record(
                    Severity.WARNING, "engine.player", "deadline.miss",
                    at=prefetch.startup_delay + deadline + late,
                    element=label, late_seconds=float(late),
                )
        report.metrics = metrics.snapshot()

    def _evaluate_slo(self, report: PlaybackReport, at: Rational) -> None:
        """Attach SLO verdicts to the report and alert on burn.

        Uses the explicit ``slo_policy`` when one was given, else the
        stock policy whenever the player is instrumented. Every non-OK
        or budget-burning verdict lands in the flight recorder stamped
        with the run's simulated end time.
        """
        policy = self.slo_policy
        if policy is None and self.obs.enabled:
            policy = default_slo_policy()
        if policy is None:
            return
        report.slo = policy.evaluate_report(report)
        if not self.obs.enabled:
            return
        metrics = self.obs.metrics
        for verdict in report.slo:
            metrics.counter("slo.evaluations").inc(slo=verdict.slo)
            if not verdict.ok:
                metrics.counter("slo.violations").inc(slo=verdict.slo)
            if verdict.severity >= Severity.WARNING:
                self.obs.events.record(
                    verdict.severity, "engine.slo",
                    "slo.violation" if not verdict.ok else "slo.burn",
                    at=at, slo=verdict.slo, measured=verdict.measured,
                    threshold=verdict.threshold, burn=verdict.burn,
                )
