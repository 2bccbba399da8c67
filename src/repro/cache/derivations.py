"""A byte-budgeted, cost-driven cache of expanded derived objects.

§4.2: "The decision of whether to store a derived object or to expand
and instead store a non-derived object often hinges upon resource
availability: if expansion can be done in real time then the derived
object is all that needs be stored." The :class:`DerivationCache` turns
that decision into an admission policy: an expansion is worth keeping
when it is *expensive to recompute relative to the bytes it occupies*,
where expense is estimated from the existing playback
:class:`~repro.engine.player.CostModel` — the same arithmetic the
engine charges for reading the inputs and the result.

Policy, all deterministic:

* **Benefit** of a cached expansion = the CostModel seconds to redo it,
  estimated as one non-contiguous read of the inputs' bytes plus the
  expanded bytes (decode included when the model charges it).
* **Admission**: an expansion cheaper than ``min_benefit_seconds`` is
  never cached ("real-time feasible — store only the derivation
  object"); one larger than the whole budget never fits; otherwise it
  is admitted only if room can be made by evicting entries of *lower*
  benefit density (benefit per byte). A newcomer never displaces
  something more valuable per byte than itself.
* **Eviction order**: ascending (density, last-use) — the least
  valuable, least recently used expansion goes first. Pure function of
  the call sequence, so same-seed runs evict identically.

This replaces the per-object unbounded ``_expanded`` memo on
:class:`~repro.core.media_object.DerivedMediaObject`: attach a cache
(``derived.attach_cache(cache)``, or hand one to the
:class:`~repro.engine.player.Player` / :class:`~repro.engine.vod.VodServer`)
and all materialization state lives here, under one global byte budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.media_object import (
    DerivedMediaObject,
    InterpretedMediaObject,
    MediaObject,
)
from repro.core.rational import Rational
from repro.engine.player import CostModel
from repro.errors import CacheError
from repro.obs.events import Severity
from repro.obs.instrument import Instrumented, Observability

#: Fixed per-entry size histogram boundaries (bytes).
ENTRY_BUCKETS: tuple[float, ...] = (
    1024.0, 16384.0, 131072.0, 1048576.0, 8388608.0, 67108864.0,
)

#: Default budget: 64 MiB of expanded media.
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024


def object_bytes(obj: MediaObject) -> int:
    """Deterministic, cheap byte-size estimate of a media object.

    Never expands a derivation and never reads BLOB payloads: interpreted
    objects are sized from their placement tables, derived objects from
    their derivation objects ("orders of magnitude smaller"), stream- and
    value-backed objects from the data they already hold.
    """
    if isinstance(obj, InterpretedMediaObject):
        return obj.interpretation.sequence(obj.sequence_name).total_size()
    if isinstance(obj, DerivedMediaObject):
        return obj.derivation_object.storage_size()
    if obj.media_type.kind.is_time_based:
        return obj.stream().total_size()
    value = obj.value()
    try:
        return len(value)
    except TypeError:
        return len(repr(value))


def expansion_seconds(derived: DerivedMediaObject, expanded_size: int,
                      cost_model: CostModel) -> Rational:
    """CostModel seconds to expand ``derived`` from scratch: its inputs'
    :func:`object_bytes` in, ``expanded_size`` bytes out
    (:meth:`~repro.engine.player.CostModel.expansion_cost`). The cache
    prices an entry's benefit with it, and the player charges it to the
    ``derivation_expand`` stage."""
    input_bytes = sum(
        object_bytes(obj) for obj in derived.derivation_object.inputs
    )
    return cost_model.expansion_cost(input_bytes, expanded_size)


@dataclass
class _Entry:
    expanded: MediaObject
    size: int
    benefit_seconds: float
    density: float
    last_use: int


class DerivationCache(Instrumented):
    """Global store for expanded derived media objects, keyed by object id."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 cost_model: CostModel | None = None,
                 min_benefit_seconds: float = 0.0,
                 obs: Observability | None = None):
        if budget_bytes < 1:
            raise CacheError(
                f"derivation cache needs a positive byte budget, "
                f"got {budget_bytes}"
            )
        if min_benefit_seconds < 0:
            raise CacheError("min_benefit_seconds must be non-negative")
        self.budget_bytes = budget_bytes
        self.cost_model = cost_model or CostModel()
        self.min_benefit_seconds = min_benefit_seconds
        self._entries: dict[str, _Entry] = {}
        self._occupancy = 0
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejections = 0
        if obs is not None:
            self.instrument(obs)

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, obj: MediaObject | str) -> bool:
        return self._key(obj) in self._entries

    @property
    def occupancy_bytes(self) -> int:
        return self._occupancy

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def keys(self) -> list[str]:
        """Cached object ids in ascending (density, last-use) eviction
        order — the next victim first."""
        return [
            key for key, _ in sorted(
                self._entries.items(),
                key=lambda kv: (kv[1].density, kv[1].last_use),
            )
        ]

    def stats(self) -> dict:
        return {
            "budget_bytes": self.budget_bytes,
            "occupancy_bytes": self._occupancy,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "rejections": self.rejections,
        }

    def manifest(self) -> dict:
        """JSON-safe snapshot of the cache's *metadata* for a checkpoint.

        Records which expansions were resident with their sizes,
        benefits and recency — not the expanded bytes themselves, which
        can be recomputed from the derivation objects. A restored
        server re-expands on demand; the manifest tells it (and the
        operator reading the checkpoint) exactly what warm state was
        lost at the crash. Deterministic: entries sort by key.
        """
        return {
            "budget_bytes": self.budget_bytes,
            "min_benefit_seconds": self.min_benefit_seconds,
            "occupancy_bytes": self._occupancy,
            "entries": [
                {
                    "key": key,
                    "size": entry.size,
                    "benefit_seconds": entry.benefit_seconds,
                    "density": entry.density,
                    "last_use": entry.last_use,
                }
                for key, entry in sorted(self._entries.items())
            ],
            "counters": {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rejections": self.rejections,
            },
        }

    # -- cache operations ---------------------------------------------------------

    @staticmethod
    def _key(obj: MediaObject | str) -> str:
        return obj if isinstance(obj, str) else obj.object_id

    def _kind(self, derived: DerivedMediaObject) -> str:
        return derived.derivation_object.derivation.name

    def get(self, derived: DerivedMediaObject) -> MediaObject | None:
        """The cached expansion of ``derived``, or None; a hit renews
        recency."""
        entry = self._entries.get(self._key(derived))
        metrics = self._obs.metrics
        if entry is None:
            self.misses += 1
            metrics.counter("cache.derivation.misses").inc(
                derivation=self._kind(derived)
            )
        else:
            self.hits += 1
            self._tick += 1
            entry.last_use = self._tick
            metrics.counter("cache.derivation.hits").inc(
                derivation=self._kind(derived)
            )
        metrics.gauge("cache.derivation.hit_ratio").set(self.hit_ratio)
        return entry.expanded if entry is not None else None

    def put(self, derived: DerivedMediaObject,
            expanded: MediaObject) -> bool:
        """Offer an expansion for admission; returns True when cached."""
        key = self._key(derived)
        kind = self._kind(derived)
        existing = self._entries.get(key)
        if existing is not None:
            self._tick += 1
            existing.expanded = expanded
            existing.last_use = self._tick
            return True
        size = object_bytes(expanded)
        benefit = float(expansion_seconds(derived, size, self.cost_model))
        if benefit < self.min_benefit_seconds:
            # Cheap to recompute in real time: store only the
            # derivation object (§4.2).
            return self._reject(kind, "cheap")
        if size > self.budget_bytes:
            return self._reject(kind, "too_large")
        density = benefit / max(size, 1)
        victims = self._plan_evictions(size, density)
        if victims is None:
            return self._reject(kind, "low_value")
        for victim in victims:
            self._evict(victim)
        self._tick += 1
        self._entries[key] = _Entry(
            expanded=expanded, size=size, benefit_seconds=benefit,
            density=density, last_use=self._tick,
        )
        self._occupancy += size
        metrics = self._obs.metrics
        metrics.counter("cache.derivation.admissions").inc(derivation=kind)
        metrics.histogram(
            "cache.derivation.entry_bytes", buckets=ENTRY_BUCKETS,
        ).observe(size)
        self._observe_occupancy()
        return True

    def materialize(self, derived: DerivedMediaObject) -> MediaObject:
        """Get-or-expand: the cached expansion when present, otherwise a
        fresh expansion offered for admission."""
        cached = self.get(derived)
        if cached is not None:
            return cached
        expanded = derived.expand()
        self.put(derived, expanded)
        return expanded

    def discard(self, obj: MediaObject | str) -> bool:
        """Drop one cached expansion, if present."""
        entry = self._entries.pop(self._key(obj), None)
        if entry is None:
            return False
        self._occupancy -= entry.size
        self._observe_occupancy()
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._occupancy = 0
        self._observe_occupancy()

    # -- internals -----------------------------------------------------------------

    def _reject(self, kind: str, reason: str) -> bool:
        self.rejections += 1
        self._obs.metrics.counter("cache.derivation.rejections").inc(
            derivation=kind, reason=reason,
        )
        self._obs.events.record(
            Severity.WARNING, "cache.derivation", "put.rejected",
            derivation=kind, reason=reason,
        )
        return False

    def _plan_evictions(self, need: int, density: float) -> list[str] | None:
        """Victims (in eviction order) freeing room for ``need`` bytes,
        or None when doing so would displace a more valuable entry."""
        if self._occupancy + need <= self.budget_bytes:
            return []
        victims: list[str] = []
        freed = 0
        for key in self.keys():
            if self._occupancy - freed + need <= self.budget_bytes:
                break
            entry = self._entries[key]
            if entry.density > density:
                return None
            victims.append(key)
            freed += entry.size
        if self._occupancy - freed + need > self.budget_bytes:
            return None
        return victims

    def _evict(self, key: str) -> None:
        entry = self._entries.pop(key)
        self._occupancy -= entry.size
        self.evictions += 1
        self._obs.metrics.counter("cache.derivation.evictions").inc()
        self._obs.events.record(
            Severity.DEBUG, "cache.derivation", "entry.evicted",
            key=key, bytes=entry.size,
        )

    def _observe_occupancy(self) -> None:
        metrics = self._obs.metrics
        metrics.gauge("cache.derivation.entries").set(len(self._entries))
        metrics.gauge("cache.derivation.occupancy_bytes").set(self._occupancy)

    def __repr__(self) -> str:
        return (
            f"DerivationCache({len(self._entries)} entries, "
            f"{self._occupancy}/{self.budget_bytes} bytes)"
        )
