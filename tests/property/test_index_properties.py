"""Property-based tests for the relational temporal index.

The linear scan is the correctness oracle: whatever catalog hypothesis
builds, the indexed backend must return byte-identical result sets —
same names, same order — including after ``set_attribute`` mutations.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.media_object import StillMediaObject
from repro.core.media_types import media_type_registry
from repro.query.database import MediaDatabase
from repro.query.index import encode_attribute
from tests.query.correctness import demonstrate_correctness

#: Values with canonical encodings, deliberately aliasing under Python
#: equality (True == 1 == 1.0 == Fraction(1)).
indexable_values = st.sampled_from([
    None, True, False, 0, 1, -3, 1.0, 0.5, 2.5,
    Fraction(1), Fraction(1, 2), "a", "b", "1", "",
])


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
