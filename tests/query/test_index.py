"""Tests for the relational temporal-index accelerator."""

import pytest

from repro.core.composition import MultimediaObject
from repro.core.intervals import Interval
from repro.core.media_object import StillMediaObject
from repro.core.media_types import MediaKind, media_type_registry
from repro.core.rational import Rational
from repro.edit import MediaEditor
from repro.errors import QueryError, QueryIndexError
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability
from repro.query.database import MediaDatabase
from repro.query.index import TemporalIndex, encode_attribute
from tests.query.correctness import demonstrate_correctness


def still(name):
    text_type = media_type_registry.get("text")
    return StillMediaObject(
        text_type, text_type.make_media_descriptor(), name, name=name,
    )


@pytest.fixture
def db():
    return MediaDatabase("indexed", index=True)


@pytest.fixture
def timeline_db(db):
    """A composition with instants, duplicate starts and nesting."""
    shared = still("leaf")
    nested = MultimediaObject("nested")
    nested.add_temporal(shared, at=0, duration=2, label="inner-a")
    nested.add_temporal(shared, at=1, duration=1, label="inner-b")
    m = MultimediaObject("timeline")
    m.add_temporal(shared, at=0, duration=4, label="video")
    m.add_temporal(shared, at=0, duration=2, label="title")
    m.add_temporal(shared, at=2, duration=0, label="marker")
    m.add_temporal(shared, at=5, duration=3, label="credits")
    m.add_temporal(nested, at=1, label="insert")
    db.add_object(shared)
    db.add_multimedia(m)
    return db


class TestEncodeAttribute:
    def test_python_equality_aliases_collapse(self):
        assert encode_attribute(True) == encode_attribute(1)
        assert encode_attribute(1) == encode_attribute(1.0)
        assert encode_attribute(0.5) == encode_attribute(Rational(1, 2))

    def test_distinct_types_stay_distinct(self):
        assert encode_attribute("1") != encode_attribute(1)
        assert encode_attribute(None) != encode_attribute("")
        assert encode_attribute(None) != encode_attribute(0)


class TestObjectSelection:
    def test_indexed_and_linear_agree(self, db):
        for i in range(8):
            db.add_object(still(f"s{i}"), genre="news" if i % 2 else "drama",
                          year=1990 + i)
        for filters in ({"genre": "news"}, {"genre": "drama", "year": 1994},
                        {"year": 2050}):
            assert ([o.name for o in db.objects(backend="index", **filters)]
                    == [o.name for o in db.objects(backend="linear",
                                                   **filters)])

    def test_kind_and_media_type_filters(self, db):
        db.add_object(still("text-1"))
        db.add_object(video_object(frames.scene(8, 8, 2, "orbit"), "vid-1"))
        indexed = db.objects(kind=MediaKind.VIDEO, backend="index")
        assert [o.name for o in indexed] == ["vid-1"]
        assert ([o.name for o in db.objects(media_type="text",
                                            backend="index")]
                == ["text-1"])

    def test_where_predicate_runs_on_the_linear_scan(self, db):
        db.add_object(still("a"), year=1990)
        db.add_object(still("b"), year=1999)
        result = db.objects(where=lambda e: e.attributes["year"] > 1995)
        assert [o.name for o in result] == ["b"]

    def test_unindexable_filter_falls_back_to_linear(self, db):
        marker = object()
        db.add_object(still("a"), tag=marker)
        db.add_object(still("b"), tag="plain")
        assert [o.name for o in db.objects(tag=marker)] == ["a"]
        counters = db.index.census()
        assert counters["rows"]["objects"] == 2

    def test_backend_index_without_index_raises(self):
        plain = MediaDatabase("plain")
        plain.add_object(still("a"))
        with pytest.raises(QueryIndexError, match="no index"):
            plain.objects(backend="index")

    def test_unknown_backend_rejected(self, db):
        with pytest.raises(QueryError, match="unknown backend"):
            db.objects(backend="sideways")


class TestSetAttributeWriteThrough:
    def test_stale_index_regression(self, db):
        """Mutate an attribute, then query both backends: they must
        agree, and the indexed answer must see the new value."""
        db.add_object(still("clip"), genre="drama")
        db.set_attribute("clip", "genre", "news")
        indexed = [o.name for o in db.objects(backend="index", genre="news")]
        linear = [o.name for o in db.objects(backend="linear", genre="news")]
        assert indexed == linear == ["clip"]
        assert db.objects(backend="index", genre="drama") == []

    def test_new_key_write_through(self, db):
        db.add_object(still("clip"))
        db.set_attribute("clip", "restored", True)
        assert [o.name for o in db.objects(backend="index", restored=True)
                ] == ["clip"]


class TestTemporalPredicates:
    def test_overlapping_agrees_and_orders_by_timeline(self, timeline_db):
        for label in ("video", "title", "marker", "credits", "insert"):
            assert (timeline_db.components_overlapping(
                        "timeline", label, backend="index")
                    == timeline_db.components_overlapping(
                        "timeline", label, backend="linear"))

    def test_instant_at_start_overlaps(self, db):
        m = MultimediaObject("m")
        leaf = still("x")
        m.add_temporal(leaf, at=2, duration=0, label="instant")
        m.add_temporal(leaf, at=2, duration=3, label="body")
        db.add_multimedia(m)
        assert db.components_overlapping("m", "instant",
                                         backend="index") == ["body"]

    def test_during_window(self, timeline_db):
        for window in ((0, 1), (2, 2), (4, 5), (0, 10), (30, 40)):
            assert (timeline_db.components_during("timeline", *window,
                                                  backend="index")
                    == timeline_db.components_during("timeline", *window,
                                                     backend="linear"))

    def test_unknown_label_raises_on_both_backends(self, timeline_db):
        for backend in ("index", "linear"):
            with pytest.raises(QueryError):
                timeline_db.components_overlapping("timeline", "ghost",
                                                   backend=backend)


class TestPointLookup:
    """The overlap query starts with a point lookup of its label."""

    @staticmethod
    def programme(size):
        db = MediaDatabase(f"programme-{size}", index=True)
        leaf = still("leaf")
        db.add_object(leaf)
        m = MultimediaObject("programme")
        for i in range(size):
            m.add_temporal(leaf, at=2 * i, duration=1 + i % 8,
                           label=f"c{i:05d}")
        db.add_multimedia(m)
        return db

    @staticmethod
    def overlap_steps(db, label):
        """SQLite VM steps of one indexed overlap query, and its answer."""
        steps = 0

        def count():
            nonlocal steps
            steps += 1
            return 0

        conn = db.index._conn
        conn.set_progress_handler(count, 1)
        try:
            answer = db.components_overlapping("programme", label,
                                               backend="index")
        finally:
            conn.set_progress_handler(None, 1)
        return steps, answer

    def test_overlap_cost_does_not_grow_with_the_programme(self):
        small_steps, small = self.overlap_steps(self.programme(100), "c00050")
        large_steps, large = self.overlap_steps(self.programme(10_000),
                                                "c00050")
        assert small == large == ["c00047", "c00051"]
        assert 0 < large_steps <= 2 * small_steps

    def test_window_and_overlap_build_one_interval_each(self, monkeypatch):
        """The stored integers decide: the only ``Interval`` a window
        query builds is its window, and an overlap query's is its
        target's."""
        db = self.programme(2_000)
        built = 0
        post_init = Interval.__post_init__

        def counting(interval):
            nonlocal built
            built += 1
            post_init(interval)

        monkeypatch.setattr(Interval, "__post_init__", counting)
        during = db.components_during("programme", 100, 900, backend="index")
        assert built == 1
        built = 0
        overlapping = db.components_overlapping("programme", "c00050",
                                                backend="index")
        assert built == 1
        monkeypatch.undo()
        assert len(during) == 401
        assert during == db.components_during("programme", 100, 900,
                                              backend="linear")
        assert overlapping == db.components_overlapping(
            "programme", "c00050", backend="linear") == ["c00047", "c00051"]

    @pytest.mark.parametrize("top_level_first", [True, False])
    def test_slash_label_is_not_the_nested_path(self, db, top_level_first):
        """A top-level ``a/b`` and the nested path ``a/b`` share a path
        string; the lookup must pick the top-level component."""
        leaf = still("leaf")
        inner = MultimediaObject("inner")
        inner.add_temporal(leaf, at=0, duration=1, label="b")
        m = MultimediaObject("slashes")
        m.add_temporal(leaf, at=0, duration=1, label="early")
        placements = [lambda: m.add_temporal(leaf, at=10, duration=2,
                                             label="a/b"),
                      lambda: m.add_temporal(inner, at=0, label="a")]
        for place in placements if top_level_first else placements[::-1]:
            place()
        m.add_temporal(leaf, at=11, duration=3, label="late")
        db.add_multimedia(m)
        assert (db.index.component_interval("slashes", "a/b")
                == Interval(Rational(10), Rational(12)))
        for backend in ("index", "linear"):
            assert db.components_overlapping("slashes", "a/b",
                                             backend=backend) == ["late"]
            assert db.components_during("slashes", 10, 11,
                                        backend=backend) == ["a/b"]
            assert db.components_during("slashes", 0, 1,
                                        backend=backend) == ["a", "early"]


class TestTimesPastSqliteInteger:
    """SQLite's INTEGER is 64 bits; a composition holding a time whose
    numerator or denominator does not fit is answered by the linear
    oracle, and every other composition stays indexed."""

    @staticmethod
    def catalog(far):
        obs = Observability()
        db = MediaDatabase("far", index=True, obs=obs)
        leaf = still("leaf")
        db.add_object(leaf)
        near = MultimediaObject("near")
        near.add_temporal(leaf, at=0, duration=2, label="a")
        near.add_temporal(leaf, at=1, duration=0, label="b")
        db.add_multimedia(near)
        nested = MultimediaObject("nested")
        nested.add_temporal(leaf, at=0, duration=1, label="inner")
        m = MultimediaObject("m")
        m.add_temporal(leaf, at=far, duration=1, label="far")
        m.add_temporal(leaf, at=0, duration=2, label="first")
        m.add_temporal(nested, at=Rational(1, 2), label="box")
        m.add_temporal(leaf, at=3, duration=0, label="mark")
        db.add_multimedia(m)
        return db, obs

    @staticmethod
    def queries(db):
        return {
            "during": [db.components_during("m", a, b, backend=backend)
                       for backend in ("index", "linear")
                       for a, b in ((0, 1), (1, 1), (3, 4), (0, 2**64))],
            "overlapping": [db.components_overlapping("m", label,
                                                      backend=backend)
                            for backend in ("index", "linear")
                            for label in ("far", "first", "box", "mark")],
            "occurrences": [db.occurrences_of("leaf", backend=backend)
                            for backend in ("index", "linear")],
            "descendants": [db.component_descendants("m", path,
                                                     backend=backend)
                            for backend in ("index", "linear")
                            for path in ("", "box")],
        }

    @pytest.mark.parametrize("far,during", [
        (Rational(1, 2**63), ["first", "far", "box"]),
        (Rational(2**63), ["first", "box"]),
        (Rational(2**63 + 1, 2**64), ["first", "box", "far"]),
    ])
    def test_both_backends_agree_and_the_fallback_is_counted(self, far,
                                                             during):
        db, obs = self.catalog(far)
        assert db.multimedia() == ["m", "near"]
        answers = self.queries(db)
        for op, pairs in answers.items():
            half = len(pairs) // 2
            assert pairs[:half] == pairs[half:], op
        assert answers["during"][0] == during
        assert ("m", "far", Interval(far, far + 1)) in answers["occurrences"][0]
        fallbacks = obs.metrics.counter("query.index.fallbacks")
        for op, calls in (("during", 4), ("overlapping", 4),
                          ("occurrences", 1), ("descendants", 2)):
            assert fallbacks.value(op=op, reason="unindexable-time") == calls
        # The other composition is still answered from its rows.
        assert (db.components_during("near", 1, 1, backend="index")
                == ["a", "b"])
        assert fallbacks.total() == 11
        with pytest.raises(QueryIndexError, match="INTEGER"):
            db.duration_rollup("m")

    def test_the_largest_integer_sqlite_holds_is_indexed(self):
        db, obs = self.catalog(Rational(2**63 - 2))  # ends at 2**63 - 1
        answers = self.queries(db)
        for op, pairs in answers.items():
            half = len(pairs) // 2
            assert pairs[:half] == pairs[half:], op
        assert obs.metrics.counter("query.index.fallbacks").total() == 0

    def test_a_late_add_past_the_range_turns_the_composition_opaque(self):
        db, obs = self.catalog(Rational(5))
        m = db.get_multimedia("m")
        assert db.components_during("m", 5, 6, backend="index") == ["far"]
        m.add_temporal(still("late"), at=Rational(1, 2**70), duration=1,
                       label="late")
        assert (db.components_during("m", 0, 1, backend="index")
                == db.components_during("m", 0, 1, backend="linear")
                == ["first", "late", "box"])
        assert obs.metrics.counter("query.index.fallbacks").value(
            op="during", reason="unindexable-time") == 1


class TestCompositionAxes:
    def test_occurrences_in_document_order(self, timeline_db):
        indexed = timeline_db.occurrences_of("leaf", backend="index")
        linear = timeline_db.occurrences_of("leaf", backend="linear")
        assert indexed == linear
        assert indexed[0][:2] == ("timeline", "video")
        # Nested placements carry absolute intervals.
        assert ("timeline", "insert/inner-b",
                Interval(Rational(2), Rational(3))) in indexed

    def test_descendants_range_query(self, timeline_db):
        assert (timeline_db.component_descendants("timeline", "insert",
                                                  backend="index")
                == ["insert/inner-a", "insert/inner-b"])
        assert (timeline_db.component_descendants("timeline",
                                                  backend="index")
                == timeline_db.component_descendants("timeline",
                                                     backend="linear"))

    def test_ancestors_range_query(self, timeline_db):
        assert (timeline_db.index.component_ancestors(
                    "timeline", "insert/inner-b") == ["insert"])

    def test_unknown_path_raises(self, timeline_db):
        with pytest.raises(QueryError, match="no component path"):
            timeline_db.component_descendants("timeline", "ghost",
                                              backend="index")

    def test_version_counter_catches_late_adds(self, timeline_db):
        """Top-level mutation after cataloging re-encodes lazily."""
        m = timeline_db.get_multimedia("timeline")
        m.add_temporal(still("late"), at=20, duration=2, label="late")
        assert "late" in timeline_db.components_during(
            "timeline", 19, 23, backend="index",
        )

    def test_refresh_index_catches_deep_mutation(self, timeline_db):
        """Edits inside a nested component bypass the root version;
        refresh_index() re-encodes explicitly."""
        m = timeline_db.get_multimedia("timeline")
        nested = m.component("insert").component
        nested.add_temporal(still("deep"), at=9, duration=1, label="deep")
        timeline_db.refresh_index()
        assert (timeline_db.component_descendants("timeline", "insert",
                                                  backend="index")
                == ["insert/inner-a", "insert/inner-b", "insert/deep"])


class TestLineageAxes:
    @pytest.fixture
    def chain_db(self, db):
        clip = video_object(frames.scene(8, 8, 8, "orbit"), "clip")
        editor = MediaEditor()
        cut = editor.cut(clip, 0, 4, name="cut")
        final = editor.cut(cut, 0, 2, name="final")
        db.add_object(clip)
        db.add_object(cut)
        db.add_object(final)
        return db

    def test_lineage_agrees(self, chain_db):
        assert [o.name for o in chain_db.lineage("final")] == ["cut", "clip"]

    def test_derived_from_agrees(self, chain_db):
        assert ([o.name for o in chain_db.derived_from("clip")]
                == ["cut", "final"])

    def test_underived_object_has_empty_axes(self, db):
        db.add_object(still("alone"))
        assert db.lineage("alone") == []
        assert db.derived_from("alone") == []


class TestDualBackendAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_catalog_agrees(self, seed):
        """Selections, temporal predicates and composition axes through
        both backends on a seeded random catalog, before and after
        attribute mutations."""
        report = demonstrate_correctness(seed=seed)
        assert report["ok"], report["disagreements"]


class TestRollups:
    def test_duration_rollup_shares_and_ranks(self, timeline_db):
        rollup = timeline_db.duration_rollup("timeline")
        assert rollup[0]["label"] == "video"       # longest component
        assert rollup[0]["rank"] == 1
        assert sum(row["share"] for row in rollup) == pytest.approx(1.0)

    def test_fidelity_rollup_census(self, db):
        db.add_object(still("t1"))
        db.add_object(still("t2"))
        db.add_object(video_object(frames.scene(8, 8, 2, "orbit"), "v1"))
        rollup = db.fidelity_rollup()
        by_type = {row["media_type"]: row for row in rollup}
        assert by_type["text"]["objects"] == 2
        assert by_type["pal-video"]["objects"] == 1

    def test_rollups_require_an_index(self):
        plain = MediaDatabase("plain")
        with pytest.raises(QueryIndexError, match="needs an index"):
            plain.fidelity_rollup()


class TestInstrumentation:
    def test_write_through_and_fastpath_counters(self):
        obs = Observability()
        db = MediaDatabase("obs", index=True, obs=obs)
        db.add_object(still("a"), genre="x")
        db.objects(backend="index", genre="x")
        writes = obs.metrics.counter("query.index.writes").total()
        hits = obs.metrics.counter("query.index.fastpath").total()
        assert writes >= 2          # object row + attribute row
        assert hits == 1

    def test_fallback_counter(self):
        obs = Observability()
        db = MediaDatabase("obs", index=True, obs=obs)
        db.add_object(still("a"), tag=object())
        db.objects(tag="anything")
        assert obs.metrics.counter("query.index.fallbacks").total() == 1

    def test_census_reports_writes(self, timeline_db):
        census = timeline_db.index.census()
        assert census["rows"]["objects"] == 1
        assert census["rows"]["composition"] > 0
        assert census["writes"] > 0
        assert census["last_write"] is not None
        assert census["size_bytes"] > 0

    def test_stats_embed_the_census(self, timeline_db):
        assert "index" in timeline_db.stats()


class TestTemporalIndexDirect:
    def test_set_attribute_on_unknown_object_raises(self):
        index = TemporalIndex()
        with pytest.raises(QueryIndexError, match="write-through"):
            index.set_attribute("ghost", "k", 1)

    def test_context_manager_closes(self):
        with TemporalIndex() as index:
            assert index.census()["rows"]["objects"] == 0
