"""Lineage ranking over shared and cyclic derivation graphs.

``MediaDatabase.lineage`` and ``derived_from`` list the objects reachable
through derivation inputs (or outputs), ranked by (depth, name, object
id), where depth is the shortest derivation distance. ``ranked`` below
computes that ranking with its own breadth-first walk, so each test
holds the catalog to an answer worked out without the catalog's
provenance graph.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edit import MediaEditor
from repro.media import frames
from repro.media.objects import video_object
from repro.query.database import MediaDatabase


def inputs_of(obj):
    return obj.derivation_object.inputs if obj.is_derived else ()


def ranked(start, step):
    """Objects reachable from ``start`` through ``step``, ranked by
    (depth, name, object id). ``start`` has depth 0 and is listed only
    when a cycle leads back to it."""
    depth = {start.object_id: 0}
    reached = {}
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            for other in step(node):
                reached[other.object_id] = other
                if other.object_id not in depth:
                    depth[other.object_id] = depth[node.object_id] + 1
                    next_frontier.append(other)
        frontier = next_frontier
    return sorted(reached.values(),
                  key=lambda o: (depth[o.object_id], o.name, o.object_id))


def ids(objects):
    return [o.object_id for o in objects]


def clip(name):
    return video_object(frames.scene(8, 8, 4, "orbit"), name)


@st.composite
def derivation_dags(draw):
    """A recipe for a derivation DAG over shared inputs.

    ``steps`` each cut one earlier object or concatenate two or three
    (possibly the same one twice), and say whether the result is
    cataloged; uncataloged takes all share one name, so ties fall to
    the object id. ``order`` is the order objects are cataloged in.
    """
    bases = draw(st.integers(1, 3))
    steps = draw(st.lists(
        st.tuples(st.lists(st.integers(0, 63), min_size=1, max_size=3),
                  st.booleans()),
        min_size=1, max_size=12,
    ))
    order = draw(st.permutations(range(bases + len(steps))))
    return bases, steps, order


class TestSharedDags:
    @given(derivation_dags())
    @settings(max_examples=60, deadline=None)
    def test_axes_rank_by_depth_name_and_id(self, recipe):
        bases, steps, order = recipe
        editor = MediaEditor()
        nodes = [clip(f"base-{i}") for i in range(bases)]
        cataloged = [True] * bases
        for k, (picks, keep) in enumerate(steps):
            sources = [nodes[p % len(nodes)] for p in picks]
            name = f"step-{k:02d}" if keep else "take"
            if len(sources) == 1:
                nodes.append(editor.cut(sources[0], 0, 1, name=name))
            else:
                nodes.append(editor.concat(*sources, name=name))
            cataloged.append(keep)

        db = MediaDatabase("dag", index=True)
        for i in order:
            if cataloged[i]:
                db.add_object(nodes[i])

        # The catalog knows what its objects derive from, and nothing
        # derived from them that was never cataloged.
        known = {}
        stack = [n for n, keep in zip(nodes, cataloged) if keep]
        while stack:
            node = stack.pop()
            if node.object_id not in known:
                known[node.object_id] = node
                stack.extend(inputs_of(node))
        children = {oid: [] for oid in known}
        for node in known.values():
            for parent in inputs_of(node):
                children[parent.object_id].append(node)

        for node, keep in zip(nodes, cataloged):
            if not keep:
                continue
            assert (ids(db.lineage(node.name))
                    == ids(ranked(node, inputs_of)))
            assert (ids(db.derived_from(node.name))
                    == ids(ranked(node, lambda o: children[o.object_id])))


class TestCycles:
    """Cycles made by rewiring ``derivation_object.inputs``."""

    def test_self_loop_lists_the_object_itself(self):
        cyc = MediaEditor().cut(clip("raw"), 0, 2, name="cyc")
        cyc.derivation_object.inputs = (cyc,)
        db = MediaDatabase("cyclic", index=True)
        db.add_object(cyc)
        assert [o.name for o in db.lineage("cyc")] == ["cyc"]
        assert [o.name for o in db.derived_from("cyc")] == ["cyc"]
        assert ids(db.lineage("cyc")) == ids(ranked(cyc, inputs_of))

    def test_three_cycle_with_a_side_input(self):
        editor = MediaEditor()
        a = clip("a")
        c1 = editor.cut(clip("raw"), 0, 3, name="c1")
        c2 = editor.cut(c1, 0, 2, name="c2")
        c3 = editor.cut(c2, 0, 1, name="c3")
        c1.derivation_object.inputs = (a, c3)
        db = MediaDatabase("cyclic", index=True)
        for obj in (a, c1, c2, c3):
            db.add_object(obj)
        children = {o.object_id: [] for o in (a, c1, c2, c3)}
        for obj in (c1, c2, c3):
            for parent in inputs_of(obj):
                children[parent.object_id].append(obj)

        assert ([o.name for o in db.lineage("c2")]
                == ["c2", "c1", "a", "c3"])
        assert [o.name for o in db.derived_from("c2")] == ["c2", "c3", "c1"]
        for obj in (a, c1, c2, c3):
            assert ids(db.lineage(obj.name)) == ids(ranked(obj, inputs_of))
            assert (ids(db.derived_from(obj.name))
                    == ids(ranked(obj, lambda o: children[o.object_id])))
