"""Shared stdlib-``sqlite3`` helpers for the relational accelerator.

The :class:`~repro.query.index.TemporalIndex` keeps the catalog's
relational state in SQLite and follows two conventions, factored out
here:

* **Tuned in-memory-class connections** — the index is a deterministic
  cache over exact in-process state, so durability pragmas are off:
  crash safety belongs to :mod:`repro.durability`, not to this
  sidecar, and the pragmas buy a large constant factor.
* **Exact-rational columns** — timestamps are stored as exact
  ``(numerator, denominator)`` INTEGER pairs plus a REAL approximation.
  The REAL column is a *conservative prefilter* for B-tree range scans;
  candidates are re-judged in Python with exact
  :class:`~repro.core.rational.Rational` arithmetic, so float rounding
  can widen a scan but never change an answer.
"""

from __future__ import annotations

import math
import sqlite3
from fractions import Fraction

from repro.core.rational import Rational

__all__ = [
    "approx",
    "open_tuned",
    "rational_from_row",
]


def open_tuned(path: str = ":memory:") -> sqlite3.Connection:
    """A connection with the accelerator pragmas applied.

    ``journal_mode=MEMORY`` / ``synchronous=OFF`` / ``temp_store=MEMORY``:
    the index is rebuildable from in-process state, so nothing is paid
    for durability it does not need.
    """
    conn = sqlite3.connect(path)
    try:
        conn.executescript(
            "PRAGMA journal_mode=MEMORY;"
            "PRAGMA synchronous=OFF;"
            "PRAGMA temp_store=MEMORY;"
        )
    except Exception:
        conn.close()  # don't leak the handle when a pragma fails
        raise
    return conn


def approx(value: Fraction) -> float:
    """A REAL approximation of an exact rational, for prefilter columns.

    Saturates to +/-inf on astronomical values instead of raising —
    the exact columns still hold the true number.
    """
    try:
        return float(value)
    # repro: suppress DF006 — saturating to ±inf is the documented contract
    except OverflowError:  # pragma: no cover - astronomical timestamps
        return math.inf if value > 0 else -math.inf


def rational_from_row(numerator: int, denominator: int) -> Rational:
    """The exact value back from its column pair."""
    return Rational(numerator, denominator)
