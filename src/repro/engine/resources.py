"""Resource model: the store-or-expand decision for derived objects.

"The decision of whether to store a derived object or to expand and
instead store a non-derived object often hinges upon resource
availability: if expansion can be done in real time then the derived
object is all that needs be stored." (§2.2, restated in §4.2)

:class:`ResourceModel` measures an expansion against the derived object's
presentation duration and issues an :class:`ExpansionDecision`. A
``speed_factor`` scales the machine's measured speed, so tests can pin
decisions deterministically (factor 0 forces "materialize", a huge factor
forces "derive-only").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.media_object import DerivedMediaObject, MediaObject
from repro.core.rational import as_rational
from repro.engine.scheduler import PresentationEvent, utilization
from repro.errors import ResourceError


@dataclass
class ExpansionDecision:
    """Outcome of the real-time feasibility check."""

    real_time: bool
    expansion_seconds: float
    duration_seconds: float
    margin: float

    @property
    def recommendation(self) -> str:
        """Paper §4.2: store only the derivation when expansion is real-time."""
        return "store derivation object" if self.real_time else "materialize"


class ResourceModel:
    """Admission control for expansions and presentation task sets."""

    def __init__(self, speed_factor: float = 1.0, safety_margin: float = 1.2):
        if speed_factor < 0:
            raise ResourceError("speed_factor must be non-negative")
        if safety_margin < 1.0:
            raise ResourceError("safety_margin must be >= 1.0")
        self.speed_factor = speed_factor
        self.safety_margin = safety_margin

    def assess_expansion(self, derived: DerivedMediaObject) -> ExpansionDecision:
        """Time one expansion and compare against presentation duration.

        The expansion must beat real time by the safety margin for the
        "store derivation object only" recommendation.
        """
        duration = derived.descriptor.get("duration")
        if duration is None:
            raise ResourceError(
                f"{derived.name} has no duration; cannot assess real-time "
                "feasibility"
            )
        duration_seconds = float(as_rational(duration))
        # repro: suppress LN001 — timing a real expansion is this method's job
        begin = time.perf_counter()
        derived.expand()
        # repro: suppress LN001 — closes the same host-time measurement
        elapsed = time.perf_counter() - begin
        effective = elapsed / self.speed_factor if self.speed_factor else float("inf")
        real_time = effective * self.safety_margin <= duration_seconds
        margin = (
            duration_seconds / effective if effective > 0 else float("inf")
        )
        return ExpansionDecision(
            real_time=real_time,
            expansion_seconds=elapsed,
            duration_seconds=duration_seconds,
            margin=margin,
        )

    def choose_storage(self, derived: DerivedMediaObject) -> MediaObject:
        """Apply the paper's rule: materialize only when expansion is slow.

        Returns the object to store — the derived object itself when
        expansion is real-time feasible, otherwise its materialization.
        """
        decision = self.assess_expansion(derived)
        if decision.real_time:
            return derived
        return derived.materialize()

    def admit(self, events: list[PresentationEvent]) -> bool:
        """Utilization-based admission for a presentation task set."""
        load = float(utilization(events)) * self.safety_margin
        return load <= self.speed_factor
