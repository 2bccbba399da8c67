"""Playback of interpreted media against a storage/decode cost model.

"Using a BLOB data type it is possible to read and write time-based media
but ... the more relevant operations of 'play' and 'record' have no
meaning." (§1.2) The player gives "play" meaning: it walks an
interpretation's placement tables in presentation order, charges each
element read/decode costs from a :class:`CostModel`, and reports whether
deadlines were met — startup delay, underruns, jitter, and the data rate
the storage system must sustain.

Everything is simulated exactly, on int ticks and rationals; no
wall-clock time is involved, so reports are reproducible to the bit.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from typing import TYPE_CHECKING, NamedTuple

from repro.core.composition import MultimediaObject
from repro.core.interpretation import Interpretation
from repro.core.media_object import InterpretedMediaObject
from repro.core.rational import ONE, ZERO, Rational, as_rational
from repro.core.time_system import to_ticks
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

    def element_cost(self, size: int, contiguous: bool) -> Rational:
        """Seconds to read (and decode) ``size`` bytes."""
        cost = Rational(size) / self.bandwidth
        if not contiguous:
            cost += self.seek_time
        if self.decode_rate:
            cost += Rational(size) / self.decode_rate
        return cost

    def expansion_cost(self, input_bytes: int,
                       output_bytes: int) -> Rational:
        """Seconds to expand a derivation (§4.2): one non-contiguous
        read of its inputs' bytes plus the bytes it produces, decode
        included when the model charges it."""
        return self.element_cost(input_bytes + output_bytes,
                                 contiguous=False)

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
    #: an observability sink (``Player(obs=...)``); None otherwise. Its
    #: bodies are shared with other snapshots: read them, never change them.
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


class _Deadlines(NamedTuple):
    """A plan's deadlines relative to its first read at the player's
    rate (media time d plays at d / rate), as exact ``times`` and as int
    ``ticks`` of ``frequency``; for an instrumented player, also each
    read's ``sequences`` name."""

    frequency: int
    times: list[Rational]
    ticks: list[int]
    sequences: list[str]

    def at(self, frequency: int) -> "_Deadlines":
        """The same in ticks of ``frequency``, a multiple of this one;
        itself when ``frequency`` is its own (no reader changes
        ``ticks``)."""
        if frequency == self.frequency:
            return self
        scale = to_ticks(Rational(frequency, self.frequency), 1)
        return self._replace(frequency=frequency, ticks=[t * scale for t in self.ticks])


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
                 plan_check: str = "check"):
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
        skips the check. The checker is a
        :class:`~repro.analysis.graph.GraphChecker` pricing feasibility
        from this player's cost model.
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
        self._default_slo = default_slo_policy() if self.obs.enabled else None
        # Metric handles every instrumented session uses, resolved at first use.
        self._stages = self._evaluations = self._session_metrics = None
        from repro.analysis.graph import PLAN_POLICIES

        if plan_check not in PLAN_POLICIES:
            raise EngineError(
                f"plan_check must be one of {PLAN_POLICIES}, "
                f"got {plan_check!r}"
            )
        self.plan_check = plan_check
        self._plan_findings: list = []

    # -- planning -------------------------------------------------------------

    def plan_interpretation(self, interpretation: Interpretation) -> list[_PlannedRead]:
        """Presentation-ordered reads of every sequence of
        ``interpretation``, each element at its placement row: the
        :meth:`_walk` of the interpretation's own sequences. Pure — it
        reads no BLOB byte and observes nothing."""
        blob = interpretation.blob
        return self._walk([(name, interpretation.sequence(name), blob, ZERO)
                           for name in interpretation.names()])

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

        report = GraphChecker(cost_model=self.cost_model).check_multimedia(multimedia)
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
        """Presentation-ordered reads for a composed multimedia object:
        the static plan check (:meth:`verify_plan`) before any expansion
        or page read, then the :meth:`_walk` of every leaf at its
        interval. A stored leaf keeps its placement and reads no page; a
        derived one expands through its access path, or through the
        player's :class:`DerivationCache` when one is attached, so
        replanning the same composition is a cache hit."""
        self.verify_plan(multimedia)
        stage_hist = self._stage_histogram() if self.obs.enabled else None
        leaves = []
        for label, obj, interval in multimedia.flatten():
            if not obj.media_type.kind.is_time_based:
                continue
            blob, cached = None, obj.is_derived and obj.is_materialized
            if isinstance(obj, InterpretedMediaObject):
                blob = obj.interpretation.blob
                source = obj.interpretation.sequence(obj.sequence_name)
            elif self.derivation_cache is not None and obj.is_derived:
                cached = obj in self.derivation_cache
                source = self.derivation_cache.materialize(obj).stream()
            else:
                source = obj.stream()
            if stage_hist is not None:
                # Composition itself is pointer arithmetic (§5): count
                # the component, charge zero simulated time.
                stage_hist.observe(0.0, stage="compose")
                if obj.is_derived:
                    from repro.cache.derivations import expansion_seconds

                    estimate = 0.0 if cached else float(expansion_seconds(
                        obj, source.total_size(), self.cost_model,
                    ))
                    stage_hist.observe(estimate, stage="derivation_expand")
                    self.obs.tracer.event(
                        "engine.expand", component=label,
                        cached=cached, cost_seconds=estimate,
                    )
            first = next(iter(source), None)  # starts at the leaf's interval
            if first is not None:
                leaves.append((label, source, blob, interval.start
                               - source.time_system.to_continuous(first.start)))
        return self._walk(leaves)

    @staticmethod
    def _walk(leaves) -> list[_PlannedRead]:
        """The one planner: presentation-ordered reads of ``(label, source,
        blob, shift)`` leaves, each source's start times moved by
        ``shift``. A sequence stored in ``blob`` is read at its placement
        rows; a timed stream (``blob`` None) at synthetic offsets, leaf
        after leaf. Each BLOB, then the synthetic run, has its own address
        range, the first at 0 and each a byte or more past the last, so
        reads in two BLOBs are never contiguous."""
        bases: dict = {}
        cursor = 0
        for _, _, blob, _ in leaves:
            if blob is not None and blob not in bases:
                bases[blob], cursor = cursor, cursor + len(blob) + 1
        reads: list[_PlannedRead] = []
        for label, source, blob, shift in leaves:
            at = source.time_system.to_continuous
            if blob is not None:
                base = bases[blob]
                reads += [_PlannedRead(f"{label}[{e.element_number}]",
                                       base + e.blob_offset, e.size,
                                       shift + at(e.start) if shift else at(e.start))
                          for e in source]
                continue
            for index, t in enumerate(source):
                reads.append(_PlannedRead(f"{label}[{index}]", cursor,
                                          t.element.size, shift + at(t.start)))
                cursor += t.element.size
        reads.sort(key=lambda r: (r.deadline, r.offset))
        return reads

    def _stage_histogram(self):
        """The shared per-stage attribution histogram (instrumented only)."""
        if self._stages is None:
            self._stages = self.obs.metrics.histogram(STAGE_METRIC,
                                                      buckets=STAGE_BUCKETS)
        return self._stages

    def prices(self, planned: int = 1) -> list[Rational]:
        """Every unit a read is charged in, ``planned`` sessions sharing the
        bandwidth: a seek, a byte's transfer alone (k sharers take k of
        these) and degraded, a byte's decode, the degraded latency and each
        backoff."""
        cost, plan, policy = self.cost_model, self.fault_plan, self.retry_policy
        bandwidth = cost.bandwidth * planned
        times = [cost.seek_time, 1 / bandwidth]
        if cost.decode_rate is not None:
            times.append(1 / cost.decode_rate)
        if plan is not None:
            times += [plan.degraded_latency,
                      1 / (bandwidth * plan.degraded_bandwidth_factor),
                      *map(policy.backoff_cost, range(policy.max_retries))]
        return times

    def deadlines(self, reads: list[_PlannedRead], planned: int = 1) -> _Deadlines:
        """``reads``' deadlines in ticks of the least frequency on which
        they and every one of :meth:`prices` are whole (the common zero
        origin and unit rate skip their identity arithmetic)."""
        first = reads[0].deadline
        times = [r.deadline for r in reads]
        if first != 0:
            times = [d - first for d in times]
        if self.rate != 1:
            times = [d / self.rate for d in times]
        frequency = math.lcm(*(t.denominator for t in times + self.prices(planned)))
        sequences = ([r.label.split("[", 1)[0] for r in reads]
                     if self.obs.enabled else [])
        return _Deadlines(frequency, times, [to_ticks(t, frequency) for t in times],
                          sequences)

    # -- playback -------------------------------------------------------------

    def play(self, target, deadlines: _Deadlines | None = None) -> PlaybackReport:
        """Simulate playback of ``target``.

        Polymorphic front door: ``target`` may be an
        :class:`~repro.core.interpretation.Interpretation`, a
        :class:`~repro.core.composition.MultimediaObject`, or a
        pre-planned read list from :meth:`plan_interpretation` /
        :meth:`plan_multimedia`; a read list may bring its cached
        :meth:`deadlines`, on a frequency where all :meth:`prices` are whole.
        """
        if isinstance(target, Interpretation):
            return self._run(self.plan_interpretation(target))
        if isinstance(target, MultimediaObject):
            report = self._run(self.plan_multimedia(target))
            report.plan_diagnostics = list(self._plan_findings)
            return report
        if isinstance(target, (list, tuple)):
            reads = list(target)
            if all(isinstance(r, _PlannedRead) for r in reads):
                return self._run(reads, deadlines)
        raise EngineError(
            f"cannot play {type(target).__name__}; expected an "
            "Interpretation, a MultimediaObject, or a list of planned reads"
        )

    def _run(self, reads: list[_PlannedRead],
             deadlines: _Deadlines | None = None) -> PlaybackReport:
        """Drain :meth:`stepper` in one go (the seed behaviour)."""
        stepper = self.stepper(reads, deadlines=deadlines)
        while True:
            try:
                next(stepper)
            except StopIteration as stop:
                return stop.value

    def stepper(self, reads: list[_PlannedRead], ledger=None, context=None,
                deadlines: _Deadlines | None = None):
        """The playback simulation as a resumable generator.

        Yields the simulated time each element consumed (read + decode +
        any retries and backoff) in presentation order, and *returns*
        the finished :class:`PlaybackReport` — the event kernel
        (:mod:`repro.engine.kernel`) drives one element per scheduled
        event, while :meth:`play` drains the generator in one loop. Both
        paths execute the same arithmetic in the same order, so their
        reports are identical by construction.

        Time is int ticks of one frequency F, the ``ledger``'s when given
        (a :class:`~repro.engine.kernel.BandwidthLedger`, whose per-byte
        ``price`` re-prices reads as sessions come and go), else that of
        ``deadlines`` (by default :meth:`deadlines`). Each of
        :meth:`prices` is in ticks once, a read is int arithmetic, and a
        time becomes ``Rational(ticks, F)`` only in the report, spans and
        events. ``context`` (a :class:`~repro.obs.tracing.TraceContext`)
        is pushed only around the spans and events the stepper records.

        Without a fault plan each element is one read. With one, every
        recovery action costs simulated time: a failed attempt charges
        the full read it wasted plus the policy's backoff, so faults
        surface as startup delay, lateness and underruns. An element
        whose pages stay unreadable is skipped (a glitch — runs of
        consecutive skips merge into one); scalable reads shrink to the
        layer prefix that fits degraded bandwidth. The walk mirrors
        :class:`~repro.faults.pager.FaultyPager`'s bookkeeping — visits
        per page, global read index — so the same plan produces the
        same storage behaviour at either enforcement point. A degraded
        window's bandwidth factor composes with the ledger's share into
        one multiplier (adaptation sees the combined factor too: more
        bandwidth, higher layer).
        """
        if not reads:
            return PlaybackReport(
                element_count=0, duration=ZERO, required_rate=ZERO, startup_delay=ZERO,
                underruns=0, underrun_fraction=0.0, max_lateness=ZERO, jitter=ZERO,
                prefetch_depth=self.prefetch_depth, seeks=0)
        cost_model = self.cost_model
        if deadlines is None:
            deadlines = self.deadlines(reads, 1 if ledger is None else ledger.planned)
        if ledger is not None:
            deadlines = deadlines.at(ledger.frequency)
        frequency = deadlines.frequency
        price = (ledger.price if ledger is not None
                 else to_ticks(1 / cost_model.bandwidth, frequency))
        seek = to_ticks(cost_model.seek_time, frequency)
        decode_price = (0 if cost_model.decode_rate is None
                        else to_ticks(1 / cost_model.decode_rate, frequency))
        plan, policy, adaptation = self.fault_plan, self.retry_policy, self.adaptation
        if plan is not None:
            slow = plan.degraded_bandwidth_factor
            latency = to_ticks(plan.degraded_latency, frequency)
            backoffs = [to_ticks(policy.backoff_cost(attempt), frequency)
                        for attempt in range(policy.max_retries)]
        instrumented = self.obs.enabled
        tracer, events = self.obs.tracer, self.obs.events
        if instrumented:
            stages = self._stage_histogram()
            page_read, decode, deliver = (
                stages.recorder(stage=stage)
                for stage in ("page_read", "decode", "deliver"))

        def traced():
            return nullcontext() if context is None else self.obs.trace(context)

        def note(span, start, severity, name, fault=None, **attributes):
            """A span from ``start`` to now and an event, in context."""
            at = Rational(clock, frequency)
            with traced():
                tracer.record(span, Rational(start, frequency), at,
                              element=read.label, **attributes)
                if fault is not None:
                    attributes["fault"] = fault
                events.record(severity, "engine.player", name, at=at,
                              element=read.label, **attributes)

        clock = seeks = retries = skipped = glitches = adapted_reads = 0
        total_bytes = 0
        cursor: int | None = None
        in_glitch = False
        visits: Counter = Counter()
        presented: list[int] = []
        production: list[int] = []
        quality_sum = Rational(0)

        for index, read in enumerate(reads):
            size = read.size
            if ledger is not None:
                price = ledger.price
            byte_ticks = price
            if plan is not None:
                element_start = clock
                delivered_share: Rational | None = None
                degraded = plan.is_degraded(index)
                wait = latency if degraded else 0
                if degraded:  # slows the bytes, not the seek or the decoder
                    byte_ticks = price * slow.denominator // slow.numerator
                if (adaptation is not None and read.size > 0
                        and adaptation.applies_to(read.label)):
                    factor = slow if degraded else Rational(1)
                    if ledger is not None:
                        factor = factor * ledger.factor()
                    adapted_reads += 1
                    level = adaptation.level_for(factor)
                    size = min(
                        read.size,
                        math.ceil(Rational(read.size)
                                  * adaptation.fraction(level)),
                    )
                    delivered_share = Rational(level + 1, adaptation.levels)
                    if instrumented and level < adaptation.levels - 1:
                        note("engine.adaptation", clock, Severity.INFO,
                             "quality.adapted", level=level, bytes=size)
            contiguous = cursor is not None and read.offset == cursor
            if cursor is not None and not contiguous:
                seeks += 1
            cursor = read.offset + size
            read_ticks = size * byte_ticks if contiguous else size * byte_ticks + seek
            decode_ticks = size * decode_price
            cost = read_ticks + decode_ticks

            if plan is None:
                # A clean element is one read: no page walk, no retries.
                clock += cost
                elapsed = cost
            else:
                # Injected latency delays every attempt's page read.
                cost += wait
                read_ticks += wait
                success = False
                pages = plan.pages_of(read.offset, size)
                if any(plan.is_bad_page(p) for p in pages):
                    # Permanently bad region: one probing attempt
                    # discovers it; retrying cannot help, so skip now.
                    self.obs.metrics.counter("faults.injected").inc(kind="bad_page")
                    probe_start = clock
                    clock += cost
                    if instrumented:
                        deliver(cost / frequency)
                        note("engine.glitch", probe_start, Severity.ERROR,
                             "element.skipped", reason="bad_page")
                else:
                    for attempt in range(policy.max_retries + 1):
                        fault_kind = None
                        for page_no in pages:
                            visit = visits[page_no]
                            visits[page_no] += 1
                            # A transient error aborts the gather at this
                            # page; a corrupted visit completes but fails
                            # verification. Either way the whole element
                            # is re-read.
                            fault_kind = (
                                "transient" if plan.is_transient(page_no, visit)
                                else "corrupted" if plan.is_corrupted(page_no, visit)
                                else None)
                            if fault_kind is not None:
                                self.obs.metrics.counter("faults.injected").inc(
                                    kind=fault_kind)
                                break
                        attempt_start = clock
                        clock += cost
                        if fault_kind is None:
                            success = True
                            break
                        if attempt < policy.max_retries:
                            clock += backoffs[attempt]
                            retries += 1
                            if instrumented:
                                deliver((clock - attempt_start) / frequency)
                                note("engine.retry", attempt_start,
                                     Severity.WARNING, "read.retry",
                                     attempt=attempt, fault=fault_kind)
                        elif instrumented:
                            deliver(cost / frequency)
                            note("engine.glitch", attempt_start, Severity.ERROR,
                                 "element.skipped", reason="retries_exhausted",
                                 fault=fault_kind)
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
            if instrumented:
                page_read(read_ticks / frequency)
                if decode_ticks:
                    decode(decode_ticks / frequency)
            presented.append(index)
            production.append(clock)
            total_bytes += size
            yield elapsed

        end = Rational(clock, frequency)
        if (policy.abort_skip_fraction is not None
                and skipped > policy.abort_skip_fraction * len(reads)):
            self.obs.metrics.counter("engine.play.aborts").inc()
            if instrumented:
                with traced():
                    events.record(Severity.CRITICAL, "engine.player",
                                  "playback.aborted", at=end, skipped=skipped,
                                  elements=len(reads))
            raise PlaybackAbortError(
                f"skipped {skipped}/{len(reads)} elements, beyond the "
                f"policy's tolerance of {policy.abort_skip_fraction:.0%}"
            )

        times, ticks = deadlines.times, deadlines.ticks
        if skipped:
            # The timeline is the content's: skipping an element glitches
            # the presentation but does not shorten the programme.
            times = [times[i] for i in presented]
            ticks = [ticks[i] for i in presented]
        prefetch = simulate_prefetch(production, ticks, self.prefetch_depth)
        late_ticks = prefetch.lateness
        lateness = ([Rational(t, frequency) if t else ZERO for t in late_ticks]
                    if prefetch.max_wait else [ZERO] * len(late_ticks))
        jitter = prefetch.max_wait
        if late_ticks and prefetch.underruns == len(late_ticks):
            # Lateness is never negative, so the earliest is zero unless
            # every element was late.
            jitter -= min(late_ticks)
        span = max(deadlines.ticks)
        duration = Rational(span, frequency)
        required = Rational(total_bytes * frequency, span) if span > 0 else ZERO
        delivered_quality = quality_sum / adapted_reads if adapted_reads else ONE
        report = PlaybackReport(
            element_count=len(presented),
            duration=duration,
            required_rate=required,
            startup_delay=Rational(prefetch.startup_delay, frequency),
            underruns=prefetch.underruns,
            underrun_fraction=prefetch.underrun_fraction,
            max_lateness=Rational(prefetch.max_wait, frequency),
            jitter=Rational(jitter, frequency),
            prefetch_depth=self.prefetch_depth,
            seeks=seeks,
            per_read=list(zip([reads[i].label for i in presented], times,
                              lateness)),
            retries=retries,
            skipped_elements=skipped,
            glitches=glitches,
            delivered_quality=delivered_quality,
        )
        with traced():
            self._evaluate_slo(report, at=end)
            if instrumented:
                mode = "clean" if plan is None else "faulted"
                counts = {} if plan is None else {"presented": len(presented)}
                tracer.record("engine.play", ZERO, end, mode=mode,
                              elements=len(reads), bytes=total_bytes, **counts)
                sequences = deadlines.sequences
                self._record_metrics(
                    report, total_bytes, mode, prefetch, frequency,
                    [sequences[i] for i in presented] if skipped else sequences)
        return report

    def _record_metrics(self, report: PlaybackReport, total_bytes: int,
                        mode: str, prefetch, frequency: int,
                        sequences: list[str]) -> None:
        """Fold one run's outcome into the attached metrics registry and
        embed the resulting snapshot in the report. ``prefetch`` is the
        run's, in ticks of ``frequency``; ``sequences`` names each
        presented read's sequence. A run with no late read records its
        lateness as one count of zeros per sequence."""
        metrics = self.obs.metrics
        if self._session_metrics is None:
            self._session_metrics = (
                *(metrics.counter(f"engine.play.{name}") for name in
                  ("runs", "elements", "bytes", "seeks", "underruns")),
                metrics.gauge("engine.play.buffer_high_water"),
                metrics.histogram("engine.play.lateness_seconds",
                                  buckets=LATENESS_BUCKETS))
        runs, elements, read_bytes, seeks, underruns, high_water, lateness = \
            self._session_metrics
        runs.inc(mode=mode)
        elements.inc(report.element_count)
        read_bytes.inc(total_bytes)
        seeks.inc(report.seeks)
        underruns.inc(report.underruns)
        if report.retries:
            metrics.counter("engine.play.retries").inc(report.retries)
        if report.skipped_elements:
            metrics.counter("engine.play.skips").inc(report.skipped_elements)
        if report.glitches:
            metrics.counter("engine.play.glitches").inc(report.glitches)
        high_water.set_max(prefetch.high_water)
        self._stage_histogram().observe(prefetch.startup_delay / frequency,
                                        stage="deliver")
        if not prefetch.max_wait:
            for sequence, count in Counter(sequences).items():
                lateness.observe_zeros(count, sequence=sequence)
        else:
            recorders: dict = {}
            for (label, deadline, late), ticks, sequence in zip(
                    report.per_read, prefetch.lateness, sequences):
                record = recorders.get(sequence) or recorders.setdefault(
                    sequence, lateness.recorder(sequence=sequence))
                record(ticks / frequency)
                if ticks:
                    self.obs.events.record(
                        Severity.WARNING, "engine.player", "deadline.miss",
                        at=report.startup_delay + deadline + late,
                        element=label, late_seconds=ticks / frequency)
        report.metrics = metrics.snapshot()

    def _evaluate_slo(self, report: PlaybackReport, at: Rational) -> None:
        """Attach SLO verdicts to the report and alert on burn.

        Uses the explicit ``slo_policy`` when one was given, else the
        stock policy whenever the player is instrumented. Every non-OK
        or budget-burning verdict lands in the flight recorder stamped
        with the run's simulated end time.
        """
        policy = self._default_slo if self.slo_policy is None else self.slo_policy
        if policy is None:
            return
        report.slo = policy.evaluate_report(report)
        if not self.obs.enabled:
            return
        metrics = self.obs.metrics
        for verdict in report.slo:
            if self._evaluations is None:
                self._evaluations = metrics.counter("slo.evaluations")
            self._evaluations.inc(slo=verdict.slo)
            if not verdict.ok:
                metrics.counter("slo.violations").inc(slo=verdict.slo)
            if verdict.severity >= Severity.WARNING:
                self.obs.events.record(
                    verdict.severity, "engine.slo",
                    "slo.violation" if not verdict.ok else "slo.burn",
                    at=at, slo=verdict.slo, measured=verdict.measured,
                    threshold=verdict.threshold, burn=verdict.burn,
                )
