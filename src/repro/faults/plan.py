"""Deterministic fault schedules for the storage stack.

A :class:`FaultPlan` decides, from a seed and nothing else, which reads
fail and how: transient errors that clear on retry, permanently bad
pages, silent bit flips, and windows of degraded bandwidth/latency.
Decisions are pure functions of ``(seed, kind, page number, visit/read
index)`` hashed through BLAKE2b — no wall clock, no shared RNG state —
so a faulted run is exactly as reproducible as a clean one, and two
consumers of the same plan (the real pager wrapper and the playback
simulation) see the same storage behaviour.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from hashlib import blake2b

from repro.core.rational import Rational, as_rational
from repro.errors import EngineError

#: Default page size mirrored from :mod:`repro.blob.pages`; duplicated
#: here so the faults package does not import the blob layer.
_DEFAULT_PAGE_SIZE = 4096

_TWO64 = 2 ** 64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of storage faults.

    Parameters
    ----------
    seed:
        Root of all fault decisions; same seed, same faults.
    page_size:
        Maps byte offsets to page numbers (faults are per-page, like
        real bad sectors).
    transient_rate:
        Probability a page *visit* raises a retryable error. Each retry
        is a fresh visit with an independent draw.
    bad_page_rate:
        Probability a page is permanently unreadable.
    corruption_rate:
        Probability a page visit silently returns flipped bits.
    degraded_fraction:
        Fraction of ``degradation_span``-read windows in which the
        storage path runs degraded.
    degradation_span:
        Number of consecutive reads per degradation window.
    degraded_bandwidth_factor:
        Bandwidth multiplier (in (0, 1]) inside a degraded window.
    degraded_latency:
        Extra seconds of latency charged per read in a degraded window.
    short_write_rate:
        Probability a page write is silently truncated to a prefix (the
        controller acknowledges a partial transfer). Surfaces later as a
        checksum failure on read, or as a torn page repaired by WAL redo.
    torn_write_rate:
        Probability an *unsynced* write survives a crash only partially
        (a torn page). Drawn per write when the simulated medium crashes.
    unsynced_survival_rate:
        Probability an unsynced write survives a crash intact. The
        default 0.0 is the adversarial disk: everything not fsynced is
        gone. Survival and tearing are disjoint draws from one uniform;
        their rates must sum to at most 1.
    lying_fsync_rate:
        Probability an fsync reports success without making the data
        durable. Undetectable by software — the crash matrix documents
        (rather than masks) the acknowledged-write loss it causes.
    """

    seed: int
    page_size: int = _DEFAULT_PAGE_SIZE
    transient_rate: float = 0.0
    bad_page_rate: float = 0.0
    corruption_rate: float = 0.0
    degraded_fraction: float = 0.0
    degradation_span: int = 32
    degraded_bandwidth_factor: Rational = Rational(1, 2)
    degraded_latency: Rational = Rational(0)
    short_write_rate: float = 0.0
    torn_write_rate: float = 0.0
    unsynced_survival_rate: float = 0.0
    lying_fsync_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.page_size < 1:
            raise EngineError("page_size must be >= 1")
        for name in ("transient_rate", "bad_page_rate", "corruption_rate",
                     "degraded_fraction", "short_write_rate",
                     "torn_write_rate", "unsynced_survival_rate",
                     "lying_fsync_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise EngineError(f"{name} must be in [0, 1], got {value}")
        if self.unsynced_survival_rate + self.torn_write_rate > 1.0:
            raise EngineError(
                "unsynced_survival_rate + torn_write_rate must not "
                "exceed 1"
            )
        if self.degradation_span < 1:
            raise EngineError("degradation_span must be >= 1")
        object.__setattr__(
            self, "degraded_bandwidth_factor",
            as_rational(self.degraded_bandwidth_factor),
        )
        object.__setattr__(
            self, "degraded_latency", as_rational(self.degraded_latency)
        )
        if not 0 < self.degraded_bandwidth_factor <= 1:
            raise EngineError(
                "degraded_bandwidth_factor must be in (0, 1], got "
                f"{self.degraded_bandwidth_factor}"
            )
        if self.degraded_latency < 0:
            raise EngineError("degraded_latency must be non-negative")

    # -- deterministic draws ---------------------------------------------------

    def _unit(self, kind: str, *parts: int) -> float:
        """Uniform draw in [0, 1) determined by (seed, kind, parts)."""
        digest = blake2b(
            kind.encode() + b"".join(struct.pack(">q", p) for p in parts),
            digest_size=8,
            key=str(self.seed).encode(),
        ).digest()
        return int.from_bytes(digest, "big") / _TWO64

    # -- per-page / per-visit decisions ----------------------------------------

    def is_bad_page(self, page_no: int) -> bool:
        """Is ``page_no`` permanently unreadable (a bad sector)?"""
        return (self.bad_page_rate > 0
                and self._unit("bad", page_no) < self.bad_page_rate)

    def is_transient(self, page_no: int, visit: int) -> bool:
        """Does the ``visit``-th read of ``page_no`` fail transiently?"""
        return (self.transient_rate > 0
                and self._unit("transient", page_no, visit) < self.transient_rate)

    def is_corrupted(self, page_no: int, visit: int) -> bool:
        """Does the ``visit``-th read of ``page_no`` return flipped bits?"""
        return (self.corruption_rate > 0
                and self._unit("corrupt", page_no, visit) < self.corruption_rate)

    def corrupt(self, data: bytes, page_no: int, visit: int) -> bytes:
        """Return ``data`` with one deterministically chosen bit flipped."""
        if not data:
            return data
        byte_index = int(self._unit("corrupt-byte", page_no, visit) * len(data))
        byte_index = min(byte_index, len(data) - 1)
        bit = int(self._unit("corrupt-bit", page_no, visit) * 8) & 7
        flipped = bytearray(data)
        flipped[byte_index] ^= 1 << bit
        return bytes(flipped)

    # -- write-side faults --------------------------------------------------------

    def is_short_write(self, page_no: int, write_index: int) -> bool:
        """Is the ``write_index``-th write of ``page_no`` acknowledged
        short (only a prefix reaches the medium)?"""
        return (self.short_write_rate > 0
                and self._unit("short", page_no, write_index)
                < self.short_write_rate)

    def short_length(self, size: int, page_no: int, write_index: int) -> int:
        """Bytes of a ``size``-byte short write that actually land
        (deterministic, in ``[1, size - 1]`` whenever ``size >= 2``)."""
        if size < 2:
            return size
        fraction = self._unit("short-len", page_no, write_index)
        return min(max(int(fraction * size), 1), size - 1)

    def write_outcome(self, write_index: int) -> str:
        """Fate of the ``write_index``-th *unsynced* write at a crash:
        ``"kept"`` (survives intact), ``"torn"`` (a prefix survives) or
        ``"lost"`` (never reached the medium)."""
        draw = self._unit("write-fate", write_index)
        if draw < self.unsynced_survival_rate:
            return "kept"
        if draw < self.unsynced_survival_rate + self.torn_write_rate:
            return "torn"
        return "lost"

    def torn_length(self, size: int, write_index: int) -> int:
        """Bytes of a ``size``-byte torn write that survive a crash
        (deterministic, in ``[1, size - 1]`` whenever ``size >= 2``)."""
        if size < 2:
            return size
        fraction = self._unit("torn-len", write_index)
        return min(max(int(fraction * size), 1), size - 1)

    def is_lying_fsync(self, fsync_index: int) -> bool:
        """Does the ``fsync_index``-th fsync lie about durability?"""
        return (self.lying_fsync_rate > 0
                and self._unit("lying-fsync", fsync_index)
                < self.lying_fsync_rate)

    # -- degradation windows -----------------------------------------------------

    def is_degraded(self, read_index: int) -> bool:
        """Is the ``read_index``-th read inside a degraded window?"""
        if self.degraded_fraction <= 0:
            return False
        window = read_index // self.degradation_span
        return self._unit("degrade", window) < self.degraded_fraction

    # -- geometry + derivation ---------------------------------------------------

    def pages_of(self, offset: int, size: int) -> range:
        """Page numbers a read of ``size`` bytes at ``offset`` touches."""
        if size <= 0:
            first = offset // self.page_size
            return range(first, first)
        return range(offset // self.page_size,
                     (offset + size - 1) // self.page_size + 1)

    def fork(self, salt: int) -> "FaultPlan":
        """A plan with the same rates but independent draws.

        Deterministic: the derived seed is a hash of (seed, salt), so
        forking the same plan with the same salt always yields the same
        child plan.
        """
        derived = int.from_bytes(
            blake2b(
                struct.pack(">q", salt),
                digest_size=8,
                key=str(self.seed).encode(),
            ).digest(),
            "big",
        )
        return replace(self, seed=derived)

    def describe(self) -> str:
        text = (
            f"FaultPlan(seed={self.seed}: transient {self.transient_rate:.1%}, "
            f"bad pages {self.bad_page_rate:.1%}, corruption "
            f"{self.corruption_rate:.1%}, degraded windows "
            f"{self.degraded_fraction:.1%} at x{self.degraded_bandwidth_factor})"
        )
        if (self.short_write_rate or self.torn_write_rate
                or self.unsynced_survival_rate or self.lying_fsync_rate):
            text += (
                f" + writes(short {self.short_write_rate:.1%}, torn "
                f"{self.torn_write_rate:.1%}, unsynced survival "
                f"{self.unsynced_survival_rate:.1%}, lying fsync "
                f"{self.lying_fsync_rate:.1%})"
            )
        return text
