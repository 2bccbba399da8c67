"""Provenance: tracking and querying derivation chains (§4.2).

"By storing derivation objects it is possible to keep track of, and
query, manipulations to media objects" — and "information about the
various production steps and their ordering are especially useful if
earlier steps need to be repeated or undone".

:class:`ProvenanceGraph` is a DAG over media objects. Edges run from each
derived object's inputs to the derived object. Registration walks
derivation objects recursively, so registering the final object of a
production pipeline captures the whole chain (Figure 4a's instance
diagram, programmatically).
"""

from __future__ import annotations

from repro.core.media_object import DerivedMediaObject, MediaObject
from repro.errors import MediaModelError


class ProvenanceGraph:
    """A DAG of media objects linked by derivation."""

    def __init__(self) -> None:
        self._objects: dict[str, MediaObject] = {}
        self._inputs: dict[str, tuple[str, ...]] = {}
        self._outputs: dict[str, set[str]] = {}

    # -- construction ---------------------------------------------------------

    def register(self, obj: MediaObject) -> MediaObject:
        """Add ``obj`` and, recursively, everything it derives from."""
        if obj.object_id in self._objects:
            return obj
        self._objects[obj.object_id] = obj
        self._outputs.setdefault(obj.object_id, set())
        if isinstance(obj, DerivedMediaObject):
            inputs = obj.derivation_object.inputs
            self._inputs[obj.object_id] = tuple(i.object_id for i in inputs)
            for parent in inputs:
                self.register(parent)
                self._outputs[parent.object_id].add(obj.object_id)
        else:
            self._inputs[obj.object_id] = ()
        return obj

    # -- access ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, obj: MediaObject) -> bool:
        return obj.object_id in self._objects

    def get(self, object_id: str) -> MediaObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise MediaModelError(f"unknown object id {object_id!r}") from None

    def by_name(self, name: str) -> MediaObject:
        matches = [o for o in self._objects.values() if o.name == name]
        if not matches:
            raise MediaModelError(f"no registered object named {name!r}")
        if len(matches) > 1:
            raise MediaModelError(f"ambiguous name {name!r} ({len(matches)} objects)")
        return matches[0]

    # -- queries -------------------------------------------------------------------

    def antecedents(self, obj: MediaObject) -> list[MediaObject]:
        """Direct inputs of ``obj`` (empty for non-derived objects)."""
        return [self.get(i) for i in self._inputs.get(obj.object_id, ())]

    def derivatives(self, obj: MediaObject) -> list[MediaObject]:
        """Objects directly derived from ``obj``."""
        return [self.get(i) for i in sorted(self._outputs.get(obj.object_id, ()))]

    def lineage(self, obj: MediaObject) -> list[MediaObject]:
        """All transitive antecedents, nearest first (BFS order)."""
        seen: dict[str, MediaObject] = {}
        frontier = [obj.object_id]
        while frontier:
            next_frontier = []
            for oid in frontier:
                for parent_id in self._inputs.get(oid, ()):
                    if parent_id not in seen:
                        seen[parent_id] = self.get(parent_id)
                        next_frontier.append(parent_id)
            frontier = next_frontier
        return list(seen.values())

    def descendants(self, obj: MediaObject) -> list[MediaObject]:
        """All objects transitively derived from ``obj`` (BFS order)."""
        seen: dict[str, MediaObject] = {}
        frontier = [obj.object_id]
        while frontier:
            next_frontier = []
            for oid in frontier:
                for child_id in sorted(self._outputs.get(oid, ())):
                    if child_id not in seen:
                        seen[child_id] = self.get(child_id)
                        next_frontier.append(child_id)
            frontier = next_frontier
        return list(seen.values())

    def roots(self) -> list[MediaObject]:
        """Non-derived objects: the "raw material" of the production."""
        return [
            o for oid, o in self._objects.items() if not self._inputs[oid]
        ]

    def production_order(self) -> list[MediaObject]:
        """Topological order: every object after all of its antecedents.

        This is "the various production steps and their ordering" — replay
        the derivations in this order to rebuild everything.
        """
        in_degree = {oid: len(parents) for oid, parents in self._inputs.items()}
        ready = sorted(oid for oid, deg in in_degree.items() if deg == 0)
        order: list[MediaObject] = []
        while ready:
            oid = ready.pop(0)
            order.append(self._objects[oid])
            for child in sorted(self._outputs[oid]):
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._objects):
            raise MediaModelError("derivation graph contains a cycle")
        return order

    def derivation_steps(self, obj: MediaObject) -> list[str]:
        """Human-readable production steps leading to ``obj``.

        >>> # e.g. ["fade(videoc1, videoc2)", "concat(cut1, fade, cut2)"]
        """
        chain = [o for o in reversed(self.lineage(obj))] + [obj]
        steps = []
        for o in chain:
            if isinstance(o, DerivedMediaObject):
                dobj = o.derivation_object
                args = ", ".join(i.name for i in dobj.inputs)
                steps.append(f"{o.name} = {dobj.derivation.name}({args})")
        return steps
