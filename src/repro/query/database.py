"""The media database catalog.

The paper's VideoClip example (§4): "a VideoClip object could possess, in
addition to character-valued attributes such as the title and name of the
director, a video-valued attribute containing the actual content". The
catalog models exactly that: media objects carry *domain attributes*
(title, director, language, topic...) alongside their media-valued
content, and multimedia objects, interpretations and the provenance graph
are registered beside them.

Selections, temporal predicates and composition axes run on one of two
backends. The **linear** backend scans the live Python objects — always
available, always correct, the reference the indexed answers are held
to. The **indexed** backend (``MediaDatabase(index=True)``) writes every
catalog mutation through to a :class:`~repro.query.index.TemporalIndex`
and serves those queries from indexed SQLite relations. Each of them
takes ``backend="auto" | "index" | "linear"``; ``auto`` uses the index
when one is attached and the query is expressible there, falling back
to the linear scan otherwise — so exotic filter values, and times past
SQLite's 64-bit INTEGER, lose speed, never answers. Lineage queries
have one path: a ranked walk of the in-memory
:class:`~repro.core.provenance.ProvenanceGraph`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.blob.store import BlobStore
from repro.core.composition import MultimediaObject
from repro.core.interpretation import Interpretation
from repro.core.intervals import Interval
from repro.core.media_object import MediaObject
from repro.core.media_types import MediaKind
from repro.core.provenance import ProvenanceGraph
from repro.errors import CatalogError, QueryError, QueryIndexError
from repro.obs.instrument import Instrumented, Observability
from repro.query.index import TemporalIndex


class CatalogEntry:
    """One cataloged media object with its domain attributes."""

    def __init__(self, obj: MediaObject, attributes: dict[str, Any]):
        self.object = obj
        self.attributes = dict(attributes)

    def matches(self, **filters: Any) -> bool:
        for key, expected in filters.items():
            if self.attributes.get(key) != expected:
                return False
        return True

    def __repr__(self) -> str:
        return f"CatalogEntry({self.object.name!r}, {self.attributes})"


class MediaDatabase(Instrumented):
    """A catalog of BLOBs, interpretations, media and multimedia objects.

    With ``index=True`` an in-memory
    :class:`~repro.query.index.TemporalIndex` shadows the catalog:
    mutations write through synchronously, and ``objects()``, the
    temporal predicates and the composition axes gain an indexed
    fast path. The linear scan stays available via ``backend="linear"``.

    Instrumentable: an attached sink counts catalog lookups and misses,
    and records each :meth:`objects` query's candidate/match counts —
    filter selectivity, the input to the index decision. The sink
    propagates to the blob store, cataloged interpretations and the
    index.
    """

    def __init__(self, name: str = "media-db",
                 blob_store: BlobStore | None = None,
                 obs: Observability | None = None,
                 index: bool = False):
        self.name = name
        self.blobs = blob_store or BlobStore()
        self.provenance = ProvenanceGraph()
        self._entries: dict[str, CatalogEntry] = {}
        self._interpretations: dict[str, Interpretation] = {}
        self._multimedia: dict[str, MultimediaObject] = {}
        self._index: TemporalIndex | None = None
        if index:
            self._index = TemporalIndex()
        if obs is not None:
            self.instrument(obs)

    @property
    def index(self) -> TemporalIndex | None:
        """The attached relational index, if any."""
        return self._index

    def _instrument_children(self, obs: Observability) -> None:
        self.blobs.instrument(obs)
        for interpretation in self._interpretations.values():
            interpretation.instrument(obs)
        if self._index is not None:
            self._index.instrument(obs)

    def _use_index(self, backend: str) -> bool:
        if backend not in ("auto", "index", "linear"):
            raise QueryError(
                f"unknown backend {backend!r}; use 'auto', 'index' or 'linear'"
            )
        if backend == "linear":
            return False
        if self._index is None:
            if backend == "index":
                raise QueryIndexError(
                    f"database {self.name!r} has no index; construct with "
                    "MediaDatabase(index=True)"
                )
            return False
        return True

    # -- media objects -----------------------------------------------------------

    def add_object(self, obj: MediaObject, *, verify: bool = False,
                   **attributes: Any) -> CatalogEntry:
        """Catalog a media object with domain attributes.

        The object's derivation lineage (if any) is registered in the
        provenance graph automatically. With ``verify`` the static
        graph checker runs first and a structurally broken object
        (derivation cycle, dangling input, kind mismatch) is refused
        with :class:`~repro.errors.PlanRejectedError` instead of
        poisoning the catalog. When an index is attached the object
        and its attributes write through in the same call.
        """
        if obj.name in self._entries:
            raise CatalogError(f"object {obj.name!r} already cataloged")
        if verify:
            self._verify(obj)
        entry = CatalogEntry(obj, attributes)
        self._entries[obj.name] = entry
        self.provenance.register(obj)
        if self._index is not None:
            self._index.index_object(obj, entry.attributes)
        return entry

    def get_object(self, name: str) -> MediaObject:
        return self._entry(name).object

    def attributes_of(self, name: str) -> dict[str, Any]:
        return dict(self._entry(name).attributes)

    def set_attribute(self, name: str, key: str, value: Any) -> None:
        """Set one domain attribute, writing through to the index.

        Without the write-through an indexed query issued after the
        mutation would answer from the stale relation — the catalog and
        the index must never disagree.
        """
        self._entry(name).attributes[key] = value
        if self._index is not None:
            self._index.set_attribute(name, key, value)

    @staticmethod
    def _verify(target) -> None:
        """Refuse structurally broken graphs at the catalog door."""
        from repro.analysis.graph import blocking_diagnostics, check_media_graph
        from repro.errors import PlanRejectedError

        report = check_media_graph(target)
        blocking = blocking_diagnostics(report, "check")
        if blocking:
            raise PlanRejectedError(
                f"refusing to catalog {getattr(target, 'name', target)!r}: "
                + "; ".join(str(d) for d in blocking),
                diagnostics=tuple(blocking),
            )

    def _entry(self, name: str) -> CatalogEntry:
        self._obs.metrics.counter("query.catalog.lookups").inc()
        try:
            return self._entries[name]
        except KeyError:
            self._obs.metrics.counter("query.catalog.misses").inc()
            raise CatalogError(
                f"no object named {name!r}; have: "
                f"{', '.join(sorted(self._entries)) or '(none)'}"
            ) from None

    def objects(
        self,
        kind: MediaKind | None = None,
        media_type: str | None = None,
        where: Callable[[CatalogEntry], bool] | None = None,
        backend: str = "auto",
        **attribute_filters: Any,
    ) -> list[MediaObject]:
        """Select cataloged objects by kind, type and domain attributes.

        Name-sorted on both backends. ``where`` (an arbitrary Python
        predicate) always runs on the linear scan; attribute equality,
        kind and media-type filters use the index when attached.
        """
        if self._use_index(backend) and where is None:
            names = self._index.object_names(kind, media_type,
                                             attribute_filters)
            if names is not None:
                return [self._entries[name].object for name in names]
        with self._obs.tracer.span(
            "query.objects",
            filters=",".join(sorted(attribute_filters)) or "(none)",
        ) as span:
            result = []
            for entry in self._entries.values():
                obj = entry.object
                if kind is not None and obj.kind is not kind:
                    continue
                if media_type is not None and obj.media_type.name != media_type:
                    continue
                if not entry.matches(**attribute_filters):
                    continue
                if where is not None and not where(entry):
                    continue
                result.append(obj)
            metrics = self._obs.metrics
            metrics.counter("query.objects.calls").inc()
            metrics.counter("query.objects.candidates").inc(len(self._entries))
            metrics.counter("query.objects.matches").inc(len(result))
            span.set(candidates=len(self._entries), matches=len(result))
            return sorted(result, key=lambda o: o.name)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- interpretations ------------------------------------------------------------

    def add_interpretation(self, interpretation: Interpretation,
                           verify: bool = False) -> Interpretation:
        """Catalog an interpretation and its sequences as media objects.

        ``verify`` additionally runs the static graph checker (placement
        bounds are always validated, with or without it).
        """
        if interpretation.name in self._interpretations:
            raise CatalogError(
                f"interpretation {interpretation.name!r} already cataloged"
            )
        if verify:
            self._verify(interpretation)
        interpretation.validate()
        self._interpretations[interpretation.name] = interpretation
        if self._obs.enabled:
            interpretation.instrument(self._obs)
        for obj in interpretation.media_objects():
            if obj.name not in self._entries:
                self.add_object(obj, interpretation=interpretation.name)
        return interpretation

    def get_interpretation(self, name: str) -> Interpretation:
        try:
            return self._interpretations[name]
        except KeyError:
            raise CatalogError(f"no interpretation named {name!r}") from None

    def interpretations(self) -> list[str]:
        return sorted(self._interpretations)

    # -- multimedia objects -----------------------------------------------------------

    def add_multimedia(self, multimedia: MultimediaObject,
                       verify: bool = False) -> MultimediaObject:
        """Catalog a multimedia object; ``verify`` gates it behind the
        static graph checker (cycles and dangling inputs are refused).
        When an index is attached the composition tree is encoded
        immediately (and re-encoded lazily if the object's version
        counter later moves)."""
        if multimedia.name in self._multimedia:
            raise CatalogError(
                f"multimedia object {multimedia.name!r} already cataloged"
            )
        if verify:
            self._verify(multimedia)
        self._multimedia[multimedia.name] = multimedia
        if self._index is not None:
            self._index.ensure_multimedia(multimedia)
        return multimedia

    def get_multimedia(self, name: str) -> MultimediaObject:
        try:
            return self._multimedia[name]
        except KeyError:
            raise CatalogError(f"no multimedia object named {name!r}") from None

    def multimedia(self) -> list[str]:
        return sorted(self._multimedia)

    def refresh_index(self) -> None:
        """Force re-encoding of every cataloged composition.

        Top-level ``add`` calls are caught automatically through the
        version counter; mutations *inside* nested component objects
        are not visible from the root, so call this after editing a
        composition's interior.
        """
        if self._index is None:
            raise QueryIndexError(
                f"database {self.name!r} has no index to refresh"
            )
        for multimedia in self._multimedia.values():
            self._index.reindex_multimedia(multimedia)

    # -- temporal predicates -----------------------------------------------------------

    def _indexed(self, name: str, op: str) -> bool:
        """Bring ``name``'s rows up to date; whether they answer ``op``."""
        self._index.ensure_multimedia(self.get_multimedia(name))
        return self._index.covers(op, name)

    def components_overlapping(self, name: str, label: str,
                               backend: str = "auto") -> list[str]:
        """Labels of ``name``'s components sharing time with ``label``."""
        from repro.query import temporal

        if self._use_index(backend) and self._indexed(name, "overlapping"):
            return self._index.components_overlapping(name, label)
        return temporal.components_overlapping(self.get_multimedia(name), label)

    def components_during(self, name: str, start, end,
                          backend: str = "auto") -> list[str]:
        """Labels of ``name``'s components intersecting ``[start, end)``."""
        from repro.query import temporal

        if self._use_index(backend) and self._indexed(name, "during"):
            return self._index.components_during(name, start, end)
        return temporal.components_during(self.get_multimedia(name), start, end)

    def occurrences_of(self, object_name: str, backend: str = "auto",
                       ) -> list[tuple[str, str, Interval]]:
        """Every leaf placement of ``object_name`` across all cataloged
        compositions: ``(multimedia, path, absolute interval)`` in
        (multimedia name, document order)."""
        if self._use_index(backend):
            for multimedia in self._multimedia.values():
                self._index.ensure_multimedia(multimedia)
            if self._index.covers("occurrences"):
                return self._index.occurrences_of(object_name)
        result = []
        for mm_name in sorted(self._multimedia):
            for path, obj, interval in self._multimedia[mm_name].flatten():
                if obj.name == object_name:
                    result.append((mm_name, path, interval))
        return result

    def component_descendants(self, name: str, path: str = "",
                              backend: str = "auto") -> list[str]:
        """Paths of every relationship below ``path`` in ``name``'s
        composition tree, document order. An empty path addresses the
        root (the whole tree)."""
        if self._use_index(backend) and self._indexed(name, "descendants"):
            return self._index.component_descendants(name, path)
        multimedia = self.get_multimedia(name)
        all_paths = _composition_paths(multimedia)
        if path == "":
            return [p for p, _ in all_paths]
        for i, (p, post) in enumerate(all_paths):
            if p == path:
                return [q for q, _ in all_paths[i + 1:post]]
        raise QueryError(f"{name!r} has no component path {path!r}")

    def duration_rollup(self, name: str) -> list[dict[str, Any]]:
        """Window-function duration statistics over ``name``'s top-level
        components (indexed backends only)."""
        if self._index is None:
            raise QueryIndexError(
                "duration_rollup needs an index; construct with "
                "MediaDatabase(index=True)"
            )
        self._index.ensure_multimedia(self.get_multimedia(name))
        return self._index.duration_rollup(name)

    def fidelity_rollup(self) -> list[dict[str, Any]]:
        """Catalog-wide kind/media-type quality census (indexed only)."""
        if self._index is None:
            raise QueryIndexError(
                "fidelity_rollup needs an index; construct with "
                "MediaDatabase(index=True)"
            )
        return self._index.fidelity_rollup()

    # -- lineage queries ---------------------------------------------------------------

    def lineage(self, name: str) -> list[MediaObject]:
        """"Keep track of, and query, manipulations to media objects."

        Transitive derivation inputs of ``name``, nearest first (ties
        by name then object id). ``name`` itself is listed, at depth 0,
        only when a derivation cycle leads back to it.
        """
        obj = self.get_object(name)
        return _ranked(self.provenance, obj,
                       self.provenance.lineage(obj), "up")

    def derived_from(self, name: str) -> list[MediaObject]:
        """Objects transitively derived from ``name``, nearest first."""
        obj = self.get_object(name)
        return _ranked(self.provenance, obj,
                       self.provenance.descendants(obj), "down")

    # -- clip repositories --------------------------------------------------------

    def ingest_directory(self, path, pattern: str = "*.rmf",
                         verify: bool = False) -> list[str]:
        """Ingest a directory of container files — §1.1's "clip media"
        repositories, "often loosely organized collections of files",
        brought under the catalog.

        Each matching file is loaded as an interpretation named after the
        file stem; its sequences are cataloged as ``<stem>/<sequence>``
        (different clips routinely reuse track names like ``video1``)
        with ``source_file`` attributes. Returns the interpretation
        names added, in file order.

        Ingest is **per-file atomic**: every check for a file runs
        before its first catalog mutation, so a failing file leaves no
        partial state (files ingested before it remain cataloged). The
        loaded interpretation is **copied on rename** — the container's
        objects are never mutated in place, so callers holding
        references to a previously loaded interpretation see no
        aliasing and a retried ingest cannot double-prefix names.
        ``verify`` gates each file behind the static graph checker,
        exactly like :meth:`add_interpretation`.
        """
        import glob
        import os

        from repro.storage.container import read_container

        added = []
        with self._obs.tracer.span(
            "query.ingest", directory=str(path), pattern=pattern,
        ) as span:
            for file_path in sorted(
                glob.glob(os.path.join(str(path), pattern))
            ):
                stem = os.path.splitext(os.path.basename(file_path))[0]
                try:
                    self._ingest_file(file_path, stem, verify)
                except Exception:
                    self._obs.metrics.counter("query.ingest.failures").inc(
                        file=os.path.basename(file_path)
                    )
                    span.set(ingested=len(added), failed_at=stem)
                    raise
                added.append(stem)
            span.set(ingested=len(added))
        return added

    def _ingest_file(self, file_path: str, stem: str, verify: bool) -> None:
        """Load, validate and catalog one container file atomically.

        Order matters: every raise happens before the first mutation.
        """
        from repro.storage.container import read_container

        if stem in self._interpretations:
            raise CatalogError(
                f"interpretation {stem!r} already cataloged; "
                f"cannot ingest {file_path}"
            )
        source = read_container(file_path)
        # Copy-on-rename: a fresh Interpretation over the same BLOB and
        # sequence tables, named after the file stem. ``source`` (and
        # anything aliasing it) is never touched.
        interpretation = Interpretation(source.blob, stem)
        for sequence_name in source.names():
            interpretation.add_sequence(source.sequence(sequence_name))
        interpretation.validate()
        if verify:
            self._verify(interpretation)
        objects = interpretation.media_objects()
        for obj in objects:
            # Fresh InterpretedMediaObject instances — renaming them
            # cannot alias any caller-visible object.
            obj.name = f"{stem}/{obj.name}"
            if obj.name in self._entries:
                raise CatalogError(
                    f"object {obj.name!r} already cataloged; "
                    f"cannot ingest {file_path}"
                )
        # All checks passed — commit.
        self._interpretations[stem] = interpretation
        if self._obs.enabled:
            interpretation.instrument(self._obs)
        for obj in objects:
            self.add_object(obj, interpretation=stem, source_file=file_path)
        metrics = self._obs.metrics
        metrics.counter("query.ingest.files").inc()
        metrics.counter("query.ingest.objects").inc(len(objects))

    def stats(self) -> dict[str, Any]:
        stats = {
            "objects": len(self._entries),
            "interpretations": len(self._interpretations),
            "multimedia_objects": len(self._multimedia),
            "derived_objects": sum(
                1 for e in self._entries.values() if e.object.is_derived
            ),
            "blob_store": self.blobs.stats(),
        }
        if self._index is not None:
            stats["index"] = self._index.census()
        return stats


def _ranked(provenance: ProvenanceGraph, obj: MediaObject,
            related: list[MediaObject], direction: str) -> list[MediaObject]:
    """Order a lineage/descendants result by (depth, name, object id).

    BFS order depends on dict insertion history; ranking by minimum
    derivation distance with deterministic tie-breaks makes the answer
    independent of the order objects were cataloged in.
    """
    step = (provenance.antecedents if direction == "up"
            else provenance.derivatives)
    depth: dict[str, int] = {obj.object_id: 0}
    frontier = [obj]
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in step(node):
                if neighbor.object_id not in depth:
                    depth[neighbor.object_id] = depth[node.object_id] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return sorted(
        related,
        key=lambda o: (depth.get(o.object_id, len(depth)), o.name,
                       o.object_id),
    )


def _composition_paths(multimedia: MultimediaObject) -> list[tuple[str, int]]:
    """All relationship paths in document (pre) order.

    Each entry is ``(path, subtree_end)`` where ``subtree_end`` is the
    index one past the node's last descendant — the linear mirror of
    the index's pre/post range.
    """
    result: list[tuple[str, int]] = []

    def walk(node: MultimediaObject, prefix: str) -> None:
        for r in node.relationships:
            path = f"{prefix}/{r.label}" if prefix else r.label
            slot = len(result)
            result.append((path, 0))
            if isinstance(r.component, MultimediaObject):
                walk(r.component, path)
            result[slot] = (path, len(result))

    walk(multimedia, "")
    return result
