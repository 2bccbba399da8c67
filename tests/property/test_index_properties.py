"""Property-based tests for the relational temporal index.

The linear scan is the correctness oracle: whatever catalog hypothesis
builds, the indexed backend must return byte-identical result sets —
same names, same order — including after ``set_attribute`` mutations.
"""

import math
from enum import IntEnum
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composition import MultimediaObject
from repro.core.media_object import StillMediaObject
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational
from repro.query.database import MediaDatabase
from repro.query.index import encode_attribute
from tests.query.correctness import demonstrate_correctness

#: Values with canonical encodings, deliberately aliasing under Python
#: equality (True == 1 == 1.0 == Fraction(1)).
indexable_values = st.sampled_from([
    None, True, False, 0, 1, -3, 1.0, 0.5, 2.5,
    Fraction(1), Fraction(1, 2), "a", "b", "1", "",
])


#: Every kind of value a catalog stores, opaque objects included, over
#: ranges small enough that aliases (``True == 1 == 1.0``) recur.
stored_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.integers(-2, 2).map(float), st.sampled_from(["a", "b", "1", ""]),
    st.builds(object),
)


class Level(IntEnum):
    LOW = -7
    HIGH = 2**70


class Tag(str):
    pass


def _reference_encoding(value):
    """``encode_attribute`` spelled the long way: every number, bools
    included, through ``Fraction``. It must return exactly this."""
    if value is None:
        return "none:"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        value = Fraction(value)
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        return f"num:{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        return "str:" + value
    return None


#: Denominators dividing 3 * 2**60, so sums of such times keep one.
denominators = st.integers(0, 60).flatmap(
    lambda k: st.sampled_from([2**k, 3 * 2**k]))


@st.composite
def fine_times(draw, most=Rational(2)):
    """An exact time in ``[0, most]``. Starts up to 2 and durations up to
    1/2 keep every numerator, ends included, inside SQLite's INTEGER."""
    denominator = draw(denominators)
    numerator = draw(st.integers(0, int(most * denominator)))
    return Rational(numerator, denominator)


#: ``k/3`` and ``k/3 + 1/2**60`` are distinct times with one ``float``.
float_twins = st.builds(lambda k, nudge: Rational(k, 3) + nudge,
                        st.integers(0, 5),
                        st.sampled_from([0, Rational(1, 2**60)]))

times = st.one_of(fine_times(), float_twins)
durations = st.one_of(st.just(Rational(0)), fine_times(most=Rational(1, 2)),
                      st.sampled_from([Rational(1, 3), Rational(1, 2)]))


def _still(name):
    text_type = media_type_registry.get("text")
    descriptor = text_type.make_media_descriptor()
    return StillMediaObject(text_type, descriptor, name, name=name)


class TestEncodeAttribute:
    @given(indexable_values, indexable_values)
    def test_encoding_equality_matches_python_equality(self, x, y):
        """Two indexable values encode identically iff ``x == y``."""
        assert (encode_attribute(x) == encode_attribute(y)) == (x == y)

    def test_unindexable_values_encode_to_none(self):
        assert encode_attribute(float("nan")) is None
        assert encode_attribute(object()) is None
        assert encode_attribute([1, 2]) is None

    @given(st.one_of(
        st.integers(), st.integers(min_value=2**64),
        st.integers(max_value=-2**64), st.booleans(),
        st.sampled_from(Level), st.text(), st.text().map(Tag),
        st.floats(), st.fractions(),
        st.fractions().map(lambda f: Rational(f.numerator, f.denominator)),
        st.none(), st.builds(object),
    ))
    def test_encoding_matches_the_fraction_reference(self, value):
        assert encode_attribute(value) == _reference_encoding(value)


class TestPlannerCounts:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 15),
                              st.sampled_from(["k", "v"]), stored_values),
                    min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_counts_match_a_recount_of_the_rows(self, operations):
        """After any run of writes, the planner's count of each
        ``(key, value)`` is the number of rows that carry it."""
        db = MediaDatabase("counts", index=True)
        names: list[str] = []
        for add, pick, key, value in operations:
            if add or not names:
                names.append(f"o{len(names):02d}")
                db.add_object(_still(names[-1]),
                              **{key: value, "shelf": pick % 3})
            else:
                db.set_attribute(names[pick % len(names)], key, value)
        index = db.index
        recount = {
            (key, value): n for key, value, n in index._conn.execute(
                "SELECT key, value, COUNT(*) FROM attributes"
                " WHERE value IS NOT NULL GROUP BY key, value")
        }
        planner = {pair: n for pair, n in index._attr_counts.items()
                   if n > 0}
        assert planner == recount
        assert min(index._attr_counts.values()) >= 0


class TestBackendAgreement:
    @given(st.lists(indexable_values, min_size=1, max_size=24),
           indexable_values)
    @settings(max_examples=60, deadline=None)
    def test_attribute_filters_agree(self, stored, wanted):
        db = MediaDatabase("agree", index=True)
        for i, value in enumerate(stored):
            db.add_object(_still(f"o{i:02d}"), v=value, parity=i % 2)
        for filters in ({"v": wanted}, {"v": wanted, "parity": 0}):
            indexed = [o.name for o in db.objects(backend="index", **filters)]
            linear = [o.name for o in db.objects(backend="linear", **filters)]
            assert indexed == linear

    @given(st.lists(indexable_values, min_size=1, max_size=16),
           st.integers(0, 15), indexable_values)
    @settings(max_examples=60, deadline=None)
    def test_agreement_survives_mutation(self, stored, victim, new_value):
        """The stale-index regression: mutate, then query both ways."""
        db = MediaDatabase("mutate", index=True)
        for i, value in enumerate(stored):
            db.add_object(_still(f"o{i:02d}"), v=value)
        db.set_attribute(f"o{victim % len(stored):02d}", "v", new_value)
        indexed = [o.name for o in db.objects(backend="index", v=new_value)]
        linear = [o.name for o in db.objects(backend="linear", v=new_value)]
        assert indexed == linear
        assert f"o{victim % len(stored):02d}" in indexed

    @given(st.lists(times, min_size=1, max_size=5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_fine_and_shared_starts_agree(self, pool, data):
        """Window, overlap and occurrence answers, in the same order, on
        starts with denominators up to 3 * 2**60, instants, starts shared
        under different labels and distinct starts with one float."""
        size = data.draw(st.integers(1, 10))
        starts = data.draw(st.lists(st.sampled_from(pool), min_size=size,
                                    max_size=size))
        spans = data.draw(st.lists(durations, min_size=size,
                                   max_size=size))
        names = data.draw(st.permutations(range(size)))
        db = MediaDatabase("fine", index=True)
        leaf = _still("leaf")
        db.add_object(leaf)
        nested = MultimediaObject("nested")
        nested.add_temporal(leaf, at=0, duration=Rational(1, 3), label="x")
        m = MultimediaObject("fine")
        for name, start, duration in zip(names, starts, spans):
            m.add_temporal(leaf, at=start, duration=duration,
                           label=f"c{name}")
        m.add_temporal(nested, at=data.draw(st.sampled_from(pool)),
                       label="box")
        db.add_multimedia(m)
        assert db.index.covers("check", "fine")
        for label, _ in m.timeline():
            assert (db.components_overlapping("fine", label, backend="index")
                    == db.components_overlapping("fine", label,
                                                 backend="linear"))
        edges = pool + [a + b for a, b in zip(starts, spans)]
        for _ in range(6):
            a, b = sorted(data.draw(st.tuples(
                st.one_of(st.sampled_from(edges), times),
                st.one_of(st.sampled_from(edges), times))))
            assert (db.components_during("fine", a, b, backend="index")
                    == db.components_during("fine", a, b, backend="linear"))
        assert (db.occurrences_of("leaf", backend="index")
                == db.occurrences_of("leaf", backend="linear"))

    @given(st.integers(0, 2**20))
    @settings(max_examples=8, deadline=None)
    def test_randomized_catalogs_agree(self, seed):
        """The full harness: selections, temporal predicates and
        composition axes through both backends on a seeded random
        catalog."""
        report = demonstrate_correctness(
            seed=seed, objects=24, components=20, windows=8, mutations=6,
        )
        assert report["ok"], report["disagreements"]
