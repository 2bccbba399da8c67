"""Deterministic crash points for the durability layer.

Every durability-critical instruction in the write path (a WAL append,
an fsync, a rename, applying a page image) is bracketed by a named
*crash point*: a call to :meth:`CrashInjector.point`. In production the
shared :data:`NULL_CRASH` makes every point a no-op; under the crash
matrix (``tests/durability/crashtest.py``) an injector is *armed* on one
``(name, occurrence)`` site and raises
:class:`~repro.errors.SimulatedCrash` exactly there — the simulated
process dies mid-instruction, and recovery is asserted to restore every
acknowledged write.

Determinism: an injector's decision is a pure function of the sequence
of points visited, so the same workload crashes at the same instruction
every time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import DurabilityError, SimulatedCrash


@dataclass(frozen=True, order=True)
class CrashSite:
    """One durability-critical instruction: the ``occurrence``-th visit
    (0-based) of the crash point named ``name``."""

    name: str
    occurrence: int = 0

    def __str__(self) -> str:
        return f"{self.name}#{self.occurrence}"


class CrashInjector:
    """Counts crash-point visits; raises when the armed site is reached.

    Unarmed (``site=None``) the injector only *records* — the crash
    matrix runs one recording pass to discover every reachable site,
    then one armed run per site. ``seen`` maps point name to visit
    count after a run.
    """

    def __init__(self, site: CrashSite | None = None):
        if site is not None and site.occurrence < 0:
            raise DurabilityError(
                f"crash site occurrence must be >= 0, got {site.occurrence}"
            )
        self.site = site
        self.seen: Counter = Counter()
        self.fired: CrashSite | None = None

    def point(self, name: str) -> None:
        """Visit the crash point ``name``; dies here when armed for it."""
        occurrence = self.seen[name]
        self.seen[name] += 1
        if (self.site is not None and self.site.name == name
                and self.site.occurrence == occurrence):
            self.fired = CrashSite(name, occurrence)
            raise SimulatedCrash(f"injected crash at {self.fired}")

    def sites(self) -> list[CrashSite]:
        """Every site visited so far, in deterministic sorted order."""
        return [
            CrashSite(name, occurrence)
            for name in sorted(self.seen)
            for occurrence in range(self.seen[name])
        ]

    def __repr__(self) -> str:
        armed = f"armed at {self.site}" if self.site else "recording"
        return f"CrashInjector({armed}, {sum(self.seen.values())} visits)"


class _NullCrashInjector(CrashInjector):
    """The production injector: every crash point is a free no-op."""

    def __init__(self) -> None:
        super().__init__()

    def point(self, name: str) -> None:
        pass


#: Shared inert injector; the default everywhere.
NULL_CRASH = _NullCrashInjector()
