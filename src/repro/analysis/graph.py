"""Static media-graph checking: verify plans from the model alone.

The paper's three structuring mechanisms — interpretation (Def. 5),
derivation (Def. 6) and composition (Def. 7) — form graphs whose errors
otherwise surface only at expansion or playback time. This module walks
those graphs *without expanding them*: no derivation is run, no BLOB
payload is read. Durations come from descriptors and placement tables,
sizes from :func:`static_bytes`, and the §4.2 real-time feasibility
question ("if expansion can be done in real time then the derived object
is all that needs be stored") is answered from the
:class:`~repro.engine.player.CostModel` budget instead of a measured run.

The walker is cycle-safe where :meth:`MultimediaObject.flatten` is not: a
multimedia object that (transitively) contains itself is reported as a
diagnostic instead of a ``RecursionError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.core.composition import MultimediaObject
from repro.core.interpretation import Interpretation
from repro.core.intervals import Interval
from repro.core.media_object import (
    DerivedMediaObject,
    InterpretedMediaObject,
    MediaObject,
    StreamMediaObject,
)
from repro.core.rational import Rational, as_rational
from repro.errors import AnalysisError


def static_duration(obj: MediaObject) -> Rational | None:
    """Presentation duration of ``obj`` without expanding or reading.

    Sources, in order: the ``duration`` descriptor attribute; the
    placement table span (interpreted objects); the in-memory stream
    span (stream-backed objects). Derived objects that declare no
    duration return None — statically unknowable without expansion.
    """
    declared = obj.descriptor.get("duration")
    if declared is not None:
        return as_rational(declared)
    if isinstance(obj, InterpretedMediaObject):
        sequence = obj.interpretation.sequence(obj.sequence_name)
        entries = list(sequence)
        if not entries:
            return Rational(0)
        end = max(e.end for e in entries)
        start = min(e.start for e in entries)
        return sequence.time_system.to_continuous(end - start)
    if isinstance(obj, StreamMediaObject):
        return obj.stream().duration_seconds()
    return None


def static_bytes(obj: MediaObject,
                 _visiting: frozenset[str] = frozenset()) -> int:
    """Worst-case byte estimate of ``obj``'s expanded content, statically.

    Interpreted objects are sized from their placement tables; stream-
    and value-backed objects from the data they hold; derived objects
    from the sum of their inputs (recursively, cycle-safe) — a derivation
    cannot statically be assumed to shrink its inputs, so the input sum
    is the conservative bound §4.2 budgeting needs. (Contrast
    :func:`repro.cache.derivations.object_bytes`, which sizes a derived
    object by its *specification* — the storage question, not the
    expansion-cost question.)
    """
    if obj.object_id in _visiting:
        return 0  # cycle: reported separately by the cycle rule
    if isinstance(obj, InterpretedMediaObject):
        return obj.interpretation.sequence(obj.sequence_name).total_size()
    if isinstance(obj, DerivedMediaObject):
        visiting = _visiting | {obj.object_id}
        return sum(
            static_bytes(inp, visiting)
            for inp in obj.derivation_object.inputs
        )
    if isinstance(obj, StreamMediaObject):
        return obj.stream().total_size()
    try:
        value = obj.value()
    # repro: suppress DF006 — static estimation is total by design: 0 is the answer
    except Exception:  # noqa: BLE001 - still objects without values
        return 0
    try:
        return len(value)
    except TypeError:
        return len(repr(value))


def static_rate(obj: MediaObject) -> Rational | None:
    """Mean data rate (bytes/second) of ``obj``, statically.

    Prefers the ``average_data_rate`` descriptor; falls back to
    bytes/duration when both are statically known.
    """
    declared = obj.descriptor.get("average_data_rate")
    if declared is not None:
        return as_rational(declared)
    duration = static_duration(obj)
    if duration is None or duration <= 0:
        return None
    return Rational(static_bytes(obj)) / duration


def static_time_system(obj: MediaObject):
    """The discrete time system governing ``obj``, without expanding.

    Interpreted objects answer from their placement table's sequence
    (which may override the type default); everything else answers from
    the media type. Returns None for still kinds.
    """
    if isinstance(obj, InterpretedMediaObject):
        try:
            return obj.interpretation.sequence(obj.sequence_name).time_system
        # repro: suppress DF006 — falling back to the type default is the contract
        except Exception:  # noqa: BLE001 - dangling sequence: MG002's job
            return obj.media_type.time_system
    return obj.media_type.time_system


@dataclass(frozen=True)
class Placement:
    """One leaf media object placed on the root object's timeline."""

    path: str
    obj: MediaObject
    interval: Interval | None  # None when the duration is unknowable
    has_spatial: bool
    start: Rational


@dataclass
class GraphContext:
    """Everything the rules need, gathered in one cycle-safe walk."""

    subject: str
    placements: list[Placement] = field(default_factory=list)
    derived: list[DerivedMediaObject] = field(default_factory=list)
    interpretations: list[Interpretation] = field(default_factory=list)
    cycles: list[str] = field(default_factory=list)
    #: cost/budget knobs, set by the checker
    cost_model: object | None = None
    bandwidth: Rational | None = None
    startup_budget: Rational = Rational(1)
    quality_floor: int | None = None


class GraphWalker:
    """Collects a :class:`GraphContext` without expanding anything."""

    def __init__(self, subject: str):
        self.context = GraphContext(subject=subject)
        self._seen_derived: set[str] = set()
        self._seen_interp: set[int] = set()

    # -- entry points -------------------------------------------------------

    def walk_multimedia(self, multimedia: MultimediaObject) -> GraphContext:
        self._walk_composition(multimedia, multimedia.name,
                               Rational(0), stack=())
        return self.context

    def walk_object(self, obj: MediaObject) -> GraphContext:
        self._walk_media_object(obj, obj.name, Rational(0),
                                spatial=False, explicit=None)
        return self.context

    def walk_interpretation(self, interpretation: Interpretation) -> GraphContext:
        # A tape's sequences share storage, not a presentation timeline:
        # place them without intervals so only structural rules apply.
        self._note_interpretation(interpretation)
        for name in interpretation.names():
            obj = InterpretedMediaObject(interpretation, name)
            self.context.placements.append(Placement(
                path=f"{interpretation.name}/{name}", obj=obj,
                interval=None, has_spatial=False, start=Rational(0),
            ))
        return self.context

    # -- traversal ----------------------------------------------------------

    def _walk_composition(self, multimedia: MultimediaObject, path: str,
                          offset: Rational, stack: tuple) -> None:
        if any(node is multimedia for node in stack):
            self.context.cycles.append(path)
            return
        stack = stack + (multimedia,)
        for rel in multimedia.relationships:
            label = f"{path}/{rel.label}"
            start = offset + (rel.start_offset if rel.is_temporal
                              else Rational(0))
            if isinstance(rel.component, MultimediaObject):
                self._walk_composition(rel.component, label, start, stack)
            else:
                self._walk_media_object(
                    rel.component, label, start,
                    spatial=rel.is_spatial,
                    explicit=rel.explicit_duration,
                )

    def _walk_media_object(self, obj: MediaObject, path: str,
                           start: Rational, spatial: bool,
                           explicit: Rational | None) -> None:
        self._place(path, obj, start, spatial, explicit)
        self._walk_derivation_inputs(obj, path, visiting=())

    def _walk_derivation_inputs(self, obj: MediaObject, path: str,
                                visiting: tuple) -> None:
        if isinstance(obj, InterpretedMediaObject):
            self._note_interpretation(obj.interpretation)
            return
        if not isinstance(obj, DerivedMediaObject):
            return
        if any(node is obj for node in visiting):
            self.context.cycles.append(path)
            return
        if obj.object_id not in self._seen_derived:
            self._seen_derived.add(obj.object_id)
            self.context.derived.append(obj)
        visiting = visiting + (obj,)
        for inp in obj.derivation_object.inputs:
            self._walk_derivation_inputs(inp, f"{path}<-{inp.name}", visiting)

    def _place(self, path: str, obj: MediaObject, start: Rational,
               spatial: bool, explicit: Rational | None) -> None:
        duration = explicit if explicit is not None else static_duration(obj)
        interval = None if duration is None else Interval.of(start, duration)
        self.context.placements.append(
            Placement(path=path, obj=obj, interval=interval,
                      has_spatial=spatial, start=start)
        )

    def _note_interpretation(self, interpretation: Interpretation) -> None:
        if id(interpretation) not in self._seen_interp:
            self._seen_interp.add(id(interpretation))
            self.context.interpretations.append(interpretation)


class GraphChecker:
    """Runs the registered media-graph rules over a model graph.

    Parameters
    ----------
    cost_model:
        The :class:`~repro.engine.player.CostModel` pricing the §4.2
        feasibility rules; default :class:`CostModel()`.
    bandwidth:
        Available sustained bandwidth (bytes/second) for the rate rule;
        defaults to the cost model's bandwidth.
    startup_budget:
        Seconds of startup delay a plan may spend expanding derivations
        before its first element is due (default 1 s).
    quality_floor:
        Minimum acceptable quality *rank* for the downgrade rule; None
        flags any silent downgrade across a derivation.
    ignore:
        Rule ids to suppress.
    """

    def __init__(self, cost_model=None, bandwidth=None,
                 startup_budget=1, quality_floor: int | None = None,
                 ignore: Iterable[str] = ()):
        from repro.engine.player import CostModel

        self.cost_model = cost_model or CostModel()
        self.bandwidth = (
            as_rational(bandwidth) if bandwidth is not None
            else self.cost_model.bandwidth
        )
        self.startup_budget = as_rational(startup_budget)
        if self.startup_budget < 0:
            raise AnalysisError("startup_budget must be non-negative")
        self.quality_floor = quality_floor
        self.ignore = frozenset(ignore)

    # -- public API ---------------------------------------------------------

    def check(self, target) -> DiagnosticReport:
        """Check a multimedia object, media object or interpretation."""
        if isinstance(target, MultimediaObject):
            return self.check_multimedia(target)
        if isinstance(target, Interpretation):
            return self.check_interpretation(target)
        if isinstance(target, MediaObject):
            return self.check_object(target)
        raise AnalysisError(
            f"cannot check {type(target).__name__}; expected a "
            "MultimediaObject, MediaObject or Interpretation"
        )

    def check_multimedia(self, multimedia: MultimediaObject) -> DiagnosticReport:
        walker = GraphWalker(f"multimedia:{multimedia.name}")
        return self._run(walker.walk_multimedia(multimedia))

    def check_object(self, obj: MediaObject) -> DiagnosticReport:
        walker = GraphWalker(f"object:{obj.name}")
        return self._run(walker.walk_object(obj))

    def check_interpretation(self, interpretation: Interpretation) -> DiagnosticReport:
        walker = GraphWalker(f"interpretation:{interpretation.name}")
        return self._run(walker.walk_interpretation(interpretation))

    # -- rule execution -----------------------------------------------------

    def _run(self, context: GraphContext) -> DiagnosticReport:
        from repro.analysis.rules import GRAPH_RULES

        context.cost_model = self.cost_model
        context.bandwidth = self.bandwidth
        context.startup_budget = self.startup_budget
        context.quality_floor = self.quality_floor
        report = DiagnosticReport(subject=context.subject)
        for rule_id in sorted(GRAPH_RULES):
            if rule_id in self.ignore:
                continue
            report.extend(GRAPH_RULES[rule_id](context))
        return report


def check_media_graph(target, cost_model=None, bandwidth=None,
                      ignore: Iterable[str] = ()) -> DiagnosticReport:
    """One-shot convenience: check ``target`` with default settings."""
    return GraphChecker(
        cost_model=cost_model, bandwidth=bandwidth, ignore=ignore
    ).check(target)


#: Rules whose violations make a plan structurally unexecutable: cycles
#: hang expansion, dangling inputs raise mid-read, kind mismatches make
#: the expansion's output unusable. Feasibility findings (MG008/MG009)
#: degrade quality rather than crash, so the default gate only flags
#: them.
STRUCTURAL_RULES: frozenset[str] = frozenset({"MG001", "MG002", "MG003"})

#: Valid plan-gate policies, in increasing strictness.
PLAN_POLICIES: tuple[str, ...] = ("off", "check", "strict")


def blocking_diagnostics(report: DiagnosticReport,
                         policy: str = "check") -> list[Diagnostic]:
    """The diagnostics that reject a plan under ``policy``.

    ``"off"`` gates nothing; ``"check"`` (the default) rejects only
    structurally unexecutable plans; ``"strict"`` rejects on every
    error-severity finding, including static infeasibility.
    """
    if policy == "off":
        return []
    if policy == "strict":
        return report.errors()
    if policy == "check":
        return [d for d in report.errors() if d.rule in STRUCTURAL_RULES]
    raise AnalysisError(
        f"unknown plan policy {policy!r}; expected one of {PLAN_POLICIES}"
    )


__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "GraphChecker",
    "PLAN_POLICIES",
    "STRUCTURAL_RULES",
    "blocking_diagnostics",
    "GraphContext",
    "GraphWalker",
    "Placement",
    "check_media_graph",
    "static_bytes",
    "static_duration",
    "static_rate",
    "static_time_system",
]
