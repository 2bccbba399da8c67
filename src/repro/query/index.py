"""Relational temporal-index accelerator for the media catalog.

The paper's §1.2 promise is that modeled structure makes media
*queryable* — "select a specific sound track, or select a specific
duration". The catalog (:mod:`repro.query.database`) answers those
queries by scanning Python objects linearly, which is fine for a shelf
of clips and hopeless for a million-object library. This module maps
the modeled structure onto indexed SQLite (stdlib) relations in the
style of the XPath-accelerator line of work:

* **composition trees** are unfolded into *occurrence* rows carrying a
  pre/post/level numbering, so descendant and ancestor axes over nested
  multimedia objects become indexed range predicates
  (``parent.pre < node.pre < parent.post``);
* **component timelines** are stored as exact-rational
  ``(start_num, start_den, end_num, end_den)`` columns plus a
  conservative float approximation (:func:`approx`) used only to
  *narrow* candidates through a B-tree range (never to decide): the
  integer columns decide each candidate by the one intersection rule of
  :mod:`repro.core.intervals`, cross-multiplied, and order the answers,
  so indexed answers are byte-identical to the linear scan. A
  composition with a time past SQLite's 64-bit INTEGER keeps no rows
  and is answered by the linear scan;
* **rollups** (duration shares, fidelity statistics) use SQL window
  functions over the encoded rows.

Derivation graphs are not encoded here: the catalog's in-memory
:class:`~repro.core.provenance.ProvenanceGraph` answers lineage and
derived-from queries faster than a relational copy of it can. Nor is
the index's own bookkeeping: the planner's match count per attribute
``(key, value)`` and each composition's indexed version and longest
top-level duration are read on every query and never joined, so they
are dicts on the :class:`TemporalIndex`, beside its opaque-key set.

The index is a rebuildable cache over exact in-process state, so it
lives in an in-memory SQLite database whose connection
(:func:`open_tuned`) turns durability pragmas off and whose writes are
never committed: it keeps nothing across a close. Crash safety belongs
to :mod:`repro.durability`, not to this sidecar.

Write-through is the invariant: every catalog mutation
(:meth:`~repro.query.database.MediaDatabase.add_object`,
``set_attribute``, ``ingest_directory``) updates the relations and the
counts in the same call, and mutable compositions carry a version
counter the index snapshots, re-encoding a changed tree lazily before
answering for it.
The linear scan stays as the backend of a catalog without an index,
and the test suite holds every indexed answer to it: same result sets,
same order.
"""

from __future__ import annotations

import math
import sqlite3
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from repro.core.intervals import Interval
from repro.core.rational import Rational, as_rational
from repro.errors import QueryError, QueryIndexError
from repro.obs.instrument import Instrumented, Observability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.composition import MultimediaObject
    from repro.core.media_object import MediaObject

#: Relative slack added to float prefilter bounds. Approximations are
#: correctly-rounded doubles (error ~1e-16 relative); a 1e-9 margin is
#: conservatively wide without dragging in meaningful over-fetch.
_EPS_REL = 1e-9

_SCHEMA = """
CREATE TABLE IF NOT EXISTS objects (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL UNIQUE,
    kind        TEXT NOT NULL,
    media_type  TEXT NOT NULL,
    is_derived  INTEGER NOT NULL,
    duration    REAL,
    quality     REAL
);
CREATE TABLE IF NOT EXISTS attributes (
    object_id   INTEGER NOT NULL REFERENCES objects(id),
    key         TEXT NOT NULL,
    value       TEXT,
    PRIMARY KEY (object_id, key)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_attributes_kv ON attributes(key, value);
CREATE TABLE IF NOT EXISTS composition (
    mm          TEXT NOT NULL,
    pre         INTEGER NOT NULL,
    post        INTEGER NOT NULL,
    level       INTEGER NOT NULL,
    path        TEXT NOT NULL,
    label       TEXT NOT NULL,
    obj_name    TEXT,
    is_leaf     INTEGER NOT NULL,
    start_num   INTEGER NOT NULL,
    start_den   INTEGER NOT NULL,
    end_num     INTEGER NOT NULL,
    end_den     INTEGER NOT NULL,
    start_approx REAL NOT NULL,
    end_approx  REAL NOT NULL,
    PRIMARY KEY (mm, pre)
);
CREATE INDEX IF NOT EXISTS idx_comp_window
    ON composition(mm, level, start_approx);
CREATE INDEX IF NOT EXISTS idx_comp_obj ON composition(obj_name);
CREATE INDEX IF NOT EXISTS idx_comp_path ON composition(mm, path);
"""


def encode_attribute(value: Any) -> str | None:
    """Canonical text encoding of an attribute value, or ``None``.

    ``None`` means the value is not indexable (arbitrary objects, NaN)
    and queries filtering on it must fall back to the linear scan.
    Python equality quirks are honoured: ``True == 1 == 1.0 ==
    Fraction(1)`` all encode identically, so indexed equality agrees
    with ``dict.__eq__`` on the linear path.
    """
    if isinstance(value, str):
        return "str:" + value
    if isinstance(value, int):
        # ``int()`` gives a bool or an ``IntEnum`` member its number.
        return f"num:{int(value)}/1"
    if value is None:
        return "none:"
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        value = Fraction(value)
    if isinstance(value, Fraction):
        return f"num:{value.numerator}/{value.denominator}"
    return None


def open_tuned() -> sqlite3.Connection:
    """An in-memory connection with the accelerator pragmas applied.

    ``journal_mode=MEMORY`` / ``synchronous=OFF`` / ``temp_store=MEMORY``:
    the index is rebuildable from in-process state, so nothing is paid
    for durability it does not need.
    """
    conn = sqlite3.connect(":memory:")
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


def _margin(value: float) -> float:
    return _EPS_REL * (1.0 + abs(value))


class TemporalIndex(Instrumented):
    """A stdlib-SQLite relational backend for the media catalog.

    One instance backs one :class:`~repro.query.database.MediaDatabase`;
    the database writes through on every mutation and routes queries
    here when a fast path applies. All temporal answers are *exact*:
    float columns only narrow the candidate set, the decision is made
    on the exact integer columns.

    Instrumented: ``query.index.*`` counters (writes, fast-path hits,
    fallbacks, rebuilds) and ``query.index.build``/``query.index.select``
    spans.
    """

    def __init__(self, obs: Observability | None = None):
        self._conn = open_tuned()
        self._conn.executescript(_SCHEMA)
        # Keys that ever carried a value with no canonical encoding;
        # equality filters on them must use the linear oracle.
        self._opaque_keys: set[str] = set()
        # The planner's exact match count per (key, encoded value),
        # kept under write-through; a missing pair counts 0.
        self._attr_counts: dict[tuple[str, str], int] = {}
        # Per indexed composition: the version its rows encode and the
        # longest top-level duration, which bounds the window prefilter.
        self._compositions: dict[str, tuple[int, float]] = {}
        # Compositions with a time past SQLite's 64-bit INTEGER: no rows.
        self._opaque_times: set[str] = set()
        self._write_seq = 0
        self.last_write: tuple[int, str, str] | None = None
        if obs is not None:
            self.instrument(obs)

    # -- plumbing -----------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "TemporalIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wrote(self, op: str, detail: str, rows: int = 1) -> None:
        self._write_seq += 1
        self.last_write = (self._write_seq, op, detail)
        self._obs.metrics.counter("query.index.writes").inc(rows, op=op)

    def _fastpath(self, op: str) -> None:
        self._obs.metrics.counter("query.index.fastpath").inc(op=op)

    def fallback(self, op: str, reason: str) -> None:
        """Record that a query could not be served and fell back."""
        self._obs.metrics.counter("query.index.fallbacks").inc(
            op=op, reason=reason,
        )

    def covers(self, op: str, mm: str | None = None) -> bool:
        """Whether the rows hold ``mm``'s times (with no ``mm``, every
        composition's); if not, the fallback of ``op`` is recorded."""
        opaque = self._opaque_times if mm is None else mm in self._opaque_times
        if opaque:
            self.fallback(op, "unindexable-time")
            return False
        return True

    # -- object / attribute write-through ----------------------------------------

    def index_object(self, obj: "MediaObject",
                     attributes: dict[str, Any]) -> None:
        """Write one cataloged object (and its attributes) through."""
        duration = _stat_float(obj.descriptor.get("duration"))
        quality = _stat_float(obj.descriptor.get("quality_factor"))
        cursor = self._conn.execute(
            "INSERT INTO objects"
            " (name, kind, media_type, is_derived, duration, quality)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (obj.name, obj.kind.value, obj.media_type.name,
             int(obj.is_derived), duration, quality),
        )
        object_id = cursor.lastrowid
        if attributes:
            rows = [(object_id, key, encode_attribute(value))
                    for key, value in attributes.items()]
            self._conn.executemany(
                "INSERT INTO attributes (object_id, key, value)"
                " VALUES (?, ?, ?)", rows,
            )
            counts = self._attr_counts
            for _, key, encoded in rows:
                if encoded is None:
                    self._opaque_keys.add(key)
                else:
                    counts[key, encoded] = counts.get((key, encoded), 0) + 1
        self._wrote("object", obj.name, rows=1 + len(attributes))

    def set_attribute(self, name: str, key: str, value: Any) -> None:
        """Write one attribute mutation through (the stale-index fix)."""
        row = self._conn.execute(
            "SELECT id FROM objects WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise QueryIndexError(
                f"index has no object {name!r}; write-through is broken"
            )
        encoded = encode_attribute(value)
        if encoded is None:
            self._opaque_keys.add(key)
        old = self._conn.execute(
            "SELECT value FROM attributes WHERE object_id = ? AND key = ?",
            (row[0], key),
        ).fetchone()
        self._conn.execute(
            "INSERT OR REPLACE INTO attributes (object_id, key, value)"
            " VALUES (?, ?, ?)",
            (row[0], key, encoded),
        )
        counts = self._attr_counts
        if old is not None and old[0] is not None:
            counts[key, old[0]] -= 1
        if encoded is not None:
            counts[key, encoded] = counts.get((key, encoded), 0) + 1
        self._wrote("set_attribute", f"{name}.{key}")

    # -- composition write-through -------------------------------------------------

    def ensure_multimedia(self, multimedia: "MultimediaObject") -> None:
        """(Re-)encode ``multimedia`` unless the stored version is current.

        ``MultimediaObject.version`` bumps on every top-level ``add``,
        so post-catalog mutation is caught here and re-encoded before
        the query runs — the index can never silently disagree with the
        live object. Mutations *inside* nested component objects do not
        bump the root version; call
        :meth:`~repro.query.database.MediaDatabase.refresh_index` after
        editing a composition's interior.
        """
        meta = self._compositions.get(multimedia.name)
        if meta is not None and meta[0] == multimedia.version:
            return
        self._index_multimedia(multimedia)
        if meta is not None:
            self._obs.metrics.counter("query.index.rebuilds").inc(
                what="composition"
            )

    def reindex_multimedia(self, multimedia: "MultimediaObject") -> None:
        """Force re-encoding, bypassing the version check.

        Needed after *deep* mutations — edits inside a nested component
        object do not bump the root's version counter, so
        :meth:`ensure_multimedia` alone would not notice them.
        """
        self._index_multimedia(multimedia)
        self._obs.metrics.counter("query.index.rebuilds").inc(
            what="composition"
        )

    def _index_multimedia(self, multimedia: "MultimediaObject") -> None:
        from repro.core.composition import MultimediaObject

        with self._obs.tracer.span(
            "query.index.build", what="composition", mm=multimedia.name,
        ):
            name = multimedia.name
            rows: list[tuple] = []
            max_dur = 0.0
            counter = 0

            # Iterative DFS in relationship insertion order — the same
            # order ``flatten`` walks — assigning pre on entry and post
            # on exit from one shared counter.
            duration = multimedia.duration()
            root_iv = Interval.of(Rational(0), duration)
            root_frame = [multimedia, "", 0, root_iv, Rational(0),
                          iter(multimedia.relationships), counter, None]
            counter += 1
            stack = [root_frame]
            seen_on_path = {id(multimedia)}
            while stack:
                frame = stack[-1]
                node, path, level, interval, offset, children, pre, _ = frame
                r = next(children, None)
                if r is not None:
                    r_offset = (r.start_offset if r.is_temporal
                                else Rational(0))
                    absolute = offset + r_offset
                    child_path = (f"{path}/{r.label}" if path else r.label)
                    child_iv = Interval.of(absolute, r.duration())
                    component = r.component
                    if isinstance(component, MultimediaObject):
                        if id(component) in seen_on_path:
                            raise QueryIndexError(
                                f"composition {name!r} contains a cycle "
                                f"at {child_path!r}"
                            )
                        seen_on_path.add(id(component))
                        stack.append([component, child_path, level + 1,
                                      child_iv, absolute,
                                      iter(component.relationships),
                                      counter, r.label])
                        counter += 1
                    else:
                        pre_leaf = counter
                        counter += 2
                        rows.append(_composition_row(
                            name, pre_leaf, pre_leaf + 1, level + 1,
                            child_path, r.label, component.name, 1,
                            child_iv,
                        ))
                        if level == 0:
                            max_dur = max(
                                max_dur, approx(child_iv.duration)
                            )
                    continue
                post = counter
                counter += 1
                obj_name = getattr(node, "name", None)
                label = frame[7] if frame[7] is not None else node.name
                rows.append(_composition_row(
                    name, pre, post, level, path, label, obj_name,
                    0, interval,
                ))
                if level == 1:
                    max_dur = max(max_dur, approx(interval.duration))
                seen_on_path.discard(id(node))
                stack.pop()

            if any(not -2**63 <= value < 2**63
                   for row in rows for value in row[8:12]):
                self._opaque_times.add(name)
                rows = []
            else:
                self._opaque_times.discard(name)
            self._conn.execute(
                "DELETE FROM composition WHERE mm = ?", (name,)
            )
            insert = (
                "INSERT INTO composition (mm, pre, post, level, path,"
                " label, obj_name, is_leaf, start_num, start_den,"
                " end_num, end_den, start_approx, end_approx)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
            )
            for begin in range(0, len(rows), 50_000):
                self._conn.executemany(insert, rows[begin:begin + 50_000])
            self._compositions[name] = (multimedia.version, max_dur)
            self._wrote("composition", name, rows=len(rows))

    # -- object selection ----------------------------------------------------------

    def object_names(self, kind: Any = None, media_type: str | None = None,
                     attribute_filters: dict[str, Any] | None = None,
                     ) -> list[str] | None:
        """Names matching the filters, sorted — or ``None`` to fall back.

        ``None`` is returned when a filter value has no canonical
        encoding (arbitrary objects); the caller then runs the linear
        oracle instead, so exotic values lose speed, never answers.
        """
        clauses: list[str] = []
        params: list[Any] = []
        equality: list[tuple[int, str, str]] = []
        for key, value in (attribute_filters or {}).items():
            encoded = encode_attribute(value)
            if encoded is None or key in self._opaque_keys:
                # Either the filter value or some stored value for this
                # key has no canonical encoding; only Python ``==`` can
                # judge those, so hand the query to the oracle.
                self.fallback("objects", "unindexable-filter")
                return None
            if value is not None:
                # Defer: the planner below orders equality filters by
                # their exact match count.
                count = self._attr_counts.get((key, encoded), 0)
                if count <= 0:
                    # Nothing in the catalog carries this (key, value):
                    # the answer is empty without touching a row.
                    self._fastpath("objects")
                    return []
                equality.append((count, key, encoded))
                continue
            # Linear semantics: ``attributes.get(key)`` is None both
            # for a stored None and for a missing key.
            clauses.append(
                "(EXISTS (SELECT 1 FROM attributes a WHERE"
                " a.object_id = o.id AND a.key = ? AND a.value = ?)"
                " OR NOT EXISTS (SELECT 1 FROM attributes a WHERE"
                " a.object_id = o.id AND a.key = ?))"
            )
            params.extend((key, encoded, key))
        if kind is not None:
            clauses.append("o.kind = ?")
            params.append(kind.value)
        if media_type is not None:
            clauses.append("o.media_type = ?")
            params.append(media_type)
        # The most selective equality filter drives the plan: the
        # ``(key, value)`` index enumerates its matching object ids and
        # each is one rowid lookup, so cost follows the smallest match
        # count, not the catalog size. The rest become per-row probes.
        for position, (_, key, encoded) in enumerate(sorted(equality)):
            if position == 0:
                clauses.insert(0, (
                    "o.id IN (SELECT a.object_id FROM attributes a"
                    " WHERE a.key = ? AND a.value = ?)"
                ))
                params[0:0] = (key, encoded)
            else:
                clauses.append(
                    "EXISTS (SELECT 1 FROM attributes a WHERE"
                    " a.object_id = o.id AND a.key = ? AND a.value = ?)"
                )
                params.extend((key, encoded))
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        with self._obs.tracer.span("query.index.select", op="objects"):
            # Sorted in Python rather than ORDER BY: an ORDER BY tempts
            # the planner into walking the whole name index instead of
            # the selective attribute probe.
            names = [row[0] for row in self._conn.execute(
                f"SELECT o.name FROM objects o{where}", params,
            )]
        names.sort()
        self._fastpath("objects")
        return names

    # -- temporal predicates ---------------------------------------------------------

    def _level1_candidates(self, mm: str, window: Interval) -> list[str]:
        """Labels of the top-level components intersecting ``window``,
        ordered by start, then label.

        The float B-tree range narrows: an intersecting component's
        start lies in ``[window.start - max_dur, window.end]`` (padded
        by the conservative margin). The stored integers decide, by
        :meth:`Interval.intersects`'s one rule cross-multiplied: every
        denominator is positive, so ``a/b < c/d`` iff ``a·d < c·b``.
        """
        meta = self._compositions.get(mm)
        if meta is None or mm in self._opaque_times:
            raise QueryIndexError(f"multimedia {mm!r} is not indexed")
        ws, we = approx(window.start), approx(window.end)
        lo = ws - meta[1]
        lo -= _margin(lo)
        hi = we + _margin(we)
        wsn, wsd = window.start.numerator, window.start.denominator
        wen, wed = window.end.numerator, window.end.denominator
        rows = self._conn.execute(
            "SELECT label, start_num, start_den, end_num, end_den"
            " FROM composition WHERE mm = ? AND level = 1"
            " AND start_approx >= ? AND start_approx <= ?",
            (mm, lo, hi),
        )
        hits = [(sn, sd, label) for label, sn, sd, en, ed in rows
                if sn * wsd == wsn * sd
                or (sn * wed < wen * sd and wsn * ed < en * wsd)]
        # Starts compare as numerators over the hits' common denominator.
        common = math.lcm(*{sd for _, sd, _ in hits})
        hits.sort(key=lambda hit: (hit[0] * (common // hit[1]), hit[2]))
        return [label for _, _, label in hits]

    def component_interval(self, mm: str, label: str) -> Interval:
        """The exact top-level interval of one labelled component.

        A point lookup on ``idx_comp_path``: a top-level row's path is
        its label, and labels are unique within a composition. Labels
        may contain ``/``, so ``level = 1`` is what tells a top-level
        ``a/b`` from the nested path ``a/b``.
        """
        row = self._conn.execute(
            "SELECT start_num, start_den, end_num, end_den"
            " FROM composition WHERE mm = ? AND path = ? AND level = 1",
            (mm, label),
        ).fetchone()
        if row is None:
            raise QueryError(f"{mm!r} has no component {label!r}")
        return Interval(Rational(row[0], row[1]), Rational(row[2], row[3]))

    def components_overlapping(self, mm: str, label: str) -> list[str]:
        """Labels of top-level components sharing time with ``label``."""
        target = self.component_interval(mm, label)
        with self._obs.tracer.span(
            "query.index.select", op="overlapping", mm=mm,
        ):
            result = [other for other in self._level1_candidates(mm, target)
                      if other != label]
        self._fastpath("overlapping")
        return result

    def components_during(self, mm: str, start, end) -> list[str]:
        """Labels of top-level components intersecting ``[start, end)``."""
        window = Interval(as_rational(start), as_rational(end))
        with self._obs.tracer.span(
            "query.index.select", op="during", mm=mm,
        ):
            result = self._level1_candidates(mm, window)
        self._fastpath("during")
        return result

    # -- composition axes --------------------------------------------------------------

    def occurrences_of(self, object_name: str
                       ) -> list[tuple[str, str, Interval]]:
        """Every leaf placement of ``object_name`` across indexed trees.

        The ancestor-flavoured axis query: "where does this clip
        appear, and when". Returns ``(multimedia, path, interval)`` in
        (multimedia name, document order), matching a flatten-based
        linear walk.
        """
        with self._obs.tracer.span(
            "query.index.select", op="occurrences", object=object_name,
        ):
            rows = self._conn.execute(
                "SELECT mm, path, start_num, start_den, end_num, end_den"
                " FROM composition WHERE obj_name = ? AND is_leaf = 1"
                " ORDER BY mm, pre", (object_name,),
            ).fetchall()
        self._fastpath("occurrences")
        return [
            (mm, path, Interval(Rational(sn, sd), Rational(en, ed)))
            for mm, path, sn, sd, en, ed in rows
        ]

    def component_descendants(self, mm: str, path: str = "") -> list[str]:
        """Paths of every relationship below ``path``, document order.

        The descendant axis as a pre/post range predicate: rows with
        ``parent.pre < pre < parent.post``. An empty path addresses the
        root (the whole tree).
        """
        row = self._conn.execute(
            "SELECT pre, post FROM composition WHERE mm = ? AND path = ?",
            (mm, path),
        ).fetchone()
        if row is None:
            raise QueryError(f"{mm!r} has no component path {path!r}")
        with self._obs.tracer.span(
            "query.index.select", op="descendants", mm=mm,
        ):
            rows = self._conn.execute(
                "SELECT path FROM composition"
                " WHERE mm = ? AND pre > ? AND pre < ? ORDER BY pre",
                (mm, row[0], row[1]),
            ).fetchall()
        self._fastpath("descendants")
        return [r[0] for r in rows]

    def component_ancestors(self, mm: str, path: str) -> list[str]:
        """Paths of the containing compositions, root-first.

        The ancestor axis: rows whose range brackets the node's.
        """
        row = self._conn.execute(
            "SELECT pre, post FROM composition WHERE mm = ? AND path = ?",
            (mm, path),
        ).fetchone()
        if row is None:
            raise QueryError(f"{mm!r} has no component path {path!r}")
        with self._obs.tracer.span(
            "query.index.select", op="ancestors", mm=mm,
        ):
            rows = self._conn.execute(
                "SELECT path FROM composition"
                " WHERE mm = ? AND pre < ? AND post > ? AND level > 0"
                " ORDER BY pre", (mm, row[0], row[1]),
            ).fetchall()
        self._fastpath("ancestors")
        return [r[0] for r in rows]

    # -- rollups -----------------------------------------------------------------------

    def duration_rollup(self, mm: str) -> list[dict[str, Any]]:
        """Window-function duration statistics over top-level components.

        Per component: duration, rank by duration, share of the summed
        component time, and running coverage in timeline order. Floats
        (these are statistics, not predicates).
        """
        if mm in self._opaque_times:
            raise QueryIndexError(f"{mm!r} has a time past SQLite's INTEGER")
        rows = self._conn.execute(
            "SELECT label,"
            "  end_approx - start_approx AS dur,"
            "  RANK() OVER (ORDER BY end_approx - start_approx DESC,"
            "               label) AS rank,"
            "  (end_approx - start_approx) /"
            "    NULLIF(SUM(end_approx - start_approx) OVER (), 0)"
            "    AS share,"
            "  SUM(end_approx - start_approx) OVER ("
            "    ORDER BY start_approx, label"
            "    ROWS UNBOUNDED PRECEDING) AS running"
            " FROM composition WHERE mm = ? AND level = 1"
            " ORDER BY rank", (mm,),
        ).fetchall()
        self._fastpath("duration_rollup")
        return [
            {"label": label, "duration": dur, "rank": rank,
             "share": share if share is not None else 0.0,
             "running": running}
            for label, dur, rank, share, running in rows
        ]

    def fidelity_rollup(self) -> list[dict[str, Any]]:
        """Per kind/media-type census with quality and duration stats.

        ``RANK() OVER (PARTITION BY kind ...)`` orders media types
        within each kind by mean quality factor — "retrieve frames at a
        specific visual fidelity" as a catalog-wide statistic.
        """
        rows = self._conn.execute(
            "SELECT kind, media_type, COUNT(*) AS n,"
            "  AVG(quality) AS mean_quality,"
            "  SUM(COALESCE(duration, 0)) AS total_duration,"
            "  CAST(COUNT(*) AS REAL) /"
            "    SUM(COUNT(*)) OVER (PARTITION BY kind) AS kind_share,"
            "  RANK() OVER (PARTITION BY kind"
            "    ORDER BY AVG(quality) DESC NULLS LAST,"
            "             media_type) AS quality_rank"
            " FROM objects GROUP BY kind, media_type"
            " ORDER BY kind, media_type",
        ).fetchall()
        self._fastpath("fidelity_rollup")
        return [
            {"kind": kind, "media_type": mt, "objects": n,
             "mean_quality": mq, "total_duration": td,
             "kind_share": share, "quality_rank": rank}
            for kind, mt, n, mq, td, share, rank in rows
        ]

    # -- census ------------------------------------------------------------------------

    def census(self) -> dict[str, Any]:
        """Row counts, relation/index inventory, size and write state."""
        tables = ("objects", "attributes", "composition")
        counts = {
            table: self._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0]
            for table in tables
        }
        indexes = [row[0] for row in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
            " AND name LIKE 'idx_%' ORDER BY name"
        )]
        page_count = self._conn.execute("PRAGMA page_count").fetchone()[0]
        page_size = self._conn.execute("PRAGMA page_size").fetchone()[0]
        return {
            "rows": counts,
            "indexes": indexes,
            "size_bytes": page_count * page_size,
            "writes": self._write_seq,
            "last_write": self.last_write,
        }


def _composition_row(mm: str, pre: int, post: int, level: int, path: str,
                     label: str, obj_name: str | None, is_leaf: int,
                     interval: Interval) -> tuple:
    start = Fraction(interval.start)
    end = Fraction(interval.end)
    return (
        mm, pre, post, level, path, label, obj_name, is_leaf,
        start.numerator, start.denominator, end.numerator, end.denominator,
        approx(start), approx(end),
    )


def _stat_float(value: Any) -> float | None:
    """Best-effort float for the statistics columns (never predicates)."""
    if value is None:
        return None
    try:
        return float(value)
    # repro: suppress DF006 — statistics columns are best-effort by contract
    except (TypeError, ValueError):
        return None


__all__ = [
    "TemporalIndex",
    "encode_attribute",
]
