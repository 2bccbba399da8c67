"""Tests for the deterministic metrics registry."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import DEFAULT_TIME_BUCKETS, MetricsRegistry, Observability
from repro.obs.metrics import export_value
from tests.obs.reference import ReferenceRegistry


class TestCounter:
    def test_starts_at_zero(self):
        counter = MetricsRegistry().counter("x")
        assert counter.value() == 0
        assert counter.total() == 0

    def test_increments(self):
        counter = MetricsRegistry().counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labels_partition_the_series(self):
        counter = MetricsRegistry().counter("faults.injected")
        counter.inc(kind="transient")
        counter.inc(2, kind="bad_page")
        assert counter.value(kind="transient") == 1
        assert counter.value(kind="bad_page") == 2
        assert counter.value(kind="corrupted") == 0
        assert counter.total() == 3

    def test_rejects_decrement(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_label_order_is_irrelevant(self):
        counter = MetricsRegistry().counter("x")
        counter.inc(a=1, b=2)
        assert counter.value(b=2, a=1) == 1


class TestGauge:
    def test_set_and_read(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7)
        assert gauge.value() == 7
        gauge.set(3)
        assert gauge.value() == 3

    def test_set_max_keeps_high_water(self):
        gauge = MetricsRegistry().gauge("high_water")
        gauge.set_max(3)
        gauge.set_max(9)
        gauge.set_max(5)
        assert gauge.value() == 9

    def test_default_when_unset(self):
        assert MetricsRegistry().gauge("g").value(default=-1) == -1


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = MetricsRegistry().histogram("t", buckets=(0.1, 1.0))
        hist.observe(0.05)   # <= 0.1
        hist.observe(0.5)    # <= 1.0
        hist.observe(2.0)    # overflow
        assert hist.bucket_counts() == [1, 1, 1]
        assert hist.count() == 3

    def test_boundary_is_inclusive(self):
        hist = MetricsRegistry().histogram("t", buckets=(0.1,))
        hist.observe(0.1)
        assert hist.bucket_counts() == [1, 0]

    def test_labeled_series_are_independent(self):
        hist = MetricsRegistry().histogram("lateness")
        hist.observe(0.002, sequence="video1")
        hist.observe(0.002, sequence="audio1")
        assert hist.count(sequence="video1") == 1
        assert hist.count(sequence="audio1") == 1
        assert hist.count() == 0

    def test_rejects_empty_or_unsorted_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.histogram("a", buckets=())
        with pytest.raises(ObservabilityError):
            registry.histogram("b", buckets=(1.0, 0.5))

    def test_default_buckets(self):
        hist = MetricsRegistry().histogram("t")
        assert hist.buckets == DEFAULT_TIME_BUCKETS


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_bucket_clash_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_get_unknown_raises(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().get("missing")

    def test_contains_and_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.counter("a")
        assert "z" in registry
        assert "missing" not in registry
        assert registry.names() == ["a", "z"]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2, kind="transient")
        registry.gauge("g").set(5)
        snap = registry.snapshot()
        assert snap["c"] == {
            "type": "counter",
            "series": [{"labels": {"kind": "transient"}, "value": 2}],
        }
        assert snap["g"] == {"type": "gauge", "series": [{"value": 5}]}

    def test_snapshot_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zz").inc()
        registry.counter("aa").inc()
        assert list(registry.snapshot()) == ["aa", "zz"]


class TestExportValue:
    def test_scalars_pass_through(self):
        assert export_value(3) == 3
        assert export_value(0.5) == 0.5
        assert export_value(True) is True
        assert export_value(None) is None

    def test_rational_exports_exact_string(self):
        from repro.core.rational import Rational

        assert export_value(Rational(1, 3)) == str(Rational(1, 3))


class TestHelpText:
    def test_help_round_trips_through_export(self):
        registry = MetricsRegistry()
        registry.counter("c", help="bytes delivered").inc(3)
        snap = registry.snapshot()
        assert snap["c"]["help"] == "bytes delivered"

    def test_help_omitted_when_unset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert "help" not in registry.snapshot()["c"]

    def test_first_help_wins_and_late_help_fills_in(self):
        registry = MetricsRegistry()
        registry.gauge("g", help="first")
        registry.gauge("g", help="second")
        assert registry.snapshot()["g"]["help"] == "first"
        registry.counter("late")
        registry.counter("late", help="attached later")
        assert registry.snapshot()["late"]["help"] == "attached later"


class TestGaugeSetMaxTypes:
    def test_mixed_uncomparable_types_raise_taxonomy_error(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set_max(3)
        with pytest.raises(ObservabilityError):
            gauge.set_max("seven")

    def test_comparable_types_still_work(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set_max(3)
        gauge.set_max(4.5)
        assert gauge.value() == 4.5


class TestHistogramOverflow:
    def test_overflow_count_tracks_last_bucket(self):
        hist = MetricsRegistry().histogram("t", buckets=(0.1, 1.0))
        assert hist.overflow_count() == 0
        hist.observe(0.05)
        hist.observe(5.0)
        hist.observe(7.0)
        assert hist.overflow_count() == 2

    def test_overflow_count_per_label_set(self):
        hist = MetricsRegistry().histogram("t", buckets=(0.1,))
        hist.observe(9.0, sequence="video")
        assert hist.overflow_count(sequence="video") == 1
        assert hist.overflow_count() == 0

    def test_overflow_quantile_clamps_to_last_boundary(self):
        hist = MetricsRegistry().histogram("t", buckets=(0.1, 1.0))
        hist.observe(50.0)
        hist.observe(60.0)
        assert hist.quantile(0.99) == 1.0


class TestHistogramZeros:
    def test_zero_counts_land_in_the_zero_bucket_and_keep_the_sum(self):
        hist = MetricsRegistry().histogram("t", buckets=(0.0, 0.5))
        hist.observe(0.25, sequence="v")
        hist.observe_zeros(3, sequence="v")
        hist.observe_zeros(0, sequence="a")
        assert hist.bucket_counts(sequence="v") == [3, 1, 0]
        assert hist.count(sequence="v") == 4
        assert hist.sum(sequence="v") == 0.25
        assert hist.labels_seen() == [(("sequence", "v"),)]


class TestSharedBodies:
    def test_each_snapshot_dict_is_fresh(self):
        obs = Observability()
        obs.metrics.counter("c").inc()
        shard = obs.scoped("shard0")
        shard.metrics.gauge("g").set(1)
        for metrics in (obs.metrics, shard.metrics):
            first = metrics.snapshot()
            first["planted"] = {}
            second = metrics.snapshot()
            assert second is not first
            assert "planted" not in second
            assert first.keys() - {"planted"} == second.keys()

    def test_unchanged_metric_keeps_its_body_and_a_write_drops_it(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h", buckets=(1.0,))
        counter.inc()
        hist.observe(0.5)
        first = registry.snapshot()
        second = registry.snapshot()
        assert second["c"] is first["c"] and second["h"] is first["h"]
        counter.inc()
        hist.recorder()(2.0)
        third = registry.snapshot()
        assert third["c"] is not first["c"] and third["h"] is not first["h"]
        assert first["c"]["series"] == [{"value": 1}]
        assert first["h"]["series"][0]["value"]["counts"] == [1, 0]


# -- change-tracked exports against the uncached reference ---------------------

NAMES = {"c": "counter", "g": "gauge", "h": "histogram"}
BUCKETS = (0.0, 0.5, 2.0)
label_sets = st.sampled_from([{}, {"k": "a"}, {"k": "b"}])
readings = st.one_of(st.integers(-5, 5),
                     st.floats(-3, 3, allow_nan=False))
observations = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 2.0]),
                         st.floats(allow_nan=True, allow_infinity=True))
writes = st.one_of(
    st.tuples(st.just("inc"), st.integers(0, 3), label_sets),
    st.tuples(st.just("set"), readings, label_sets),
    st.tuples(st.just("set_max"), readings, label_sets),
    st.tuples(st.just("record"), observations, label_sets),
    st.tuples(st.just("observe"), observations, label_sets),
    st.tuples(st.just("zeros"), st.integers(0, 4), label_sets),
    st.tuples(st.just("help"), st.sampled_from(sorted(NAMES)),
              st.sampled_from(["", "first", "second"])),
    st.tuples(st.just("snapshot")),
)
METRIC_OF = {"inc": "c", "set": "g", "set_max": "g", "record": "h",
             "observe": "h", "zeros": "h"}


def _metric(registry, name: str, help: str = ""):
    if isinstance(registry, ReferenceRegistry):
        return registry.get(name, NAMES[name], BUCKETS if name == "h" else (),
                            help)
    if name == "h":
        return registry.histogram(name, buckets=BUCKETS, help=help)
    return getattr(registry, NAMES[name])(name, help)


def _apply(registry, op: tuple) -> None:
    kind, *args = op
    if kind == "help":
        _metric(registry, args[0], args[1])
        return
    value, labels = args
    metric = _metric(registry, METRIC_OF[kind])
    if kind == "record" and not isinstance(registry, ReferenceRegistry):
        metric.recorder(**labels)(float(value))
    elif kind in ("record", "observe"):
        metric.observe(value, **labels)
    elif kind == "zeros":
        metric.observe_zeros(value, **labels)
    else:
        getattr(metric, kind)(value, **labels)


def _text(snapshot: dict) -> str:
    return json.dumps(snapshot, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(writes, max_size=40))
def test_kept_bodies_equal_the_uncached_rebuild(ops):
    """Every snapshot equals the reference's rebuild at that moment
    (NaN, -0.0 and infinite sums included), and no later write changes
    a snapshot already taken."""
    registry, reference = MetricsRegistry(), ReferenceRegistry()
    taken = []
    for op in [*ops, ("snapshot",)]:
        if op[0] == "snapshot":
            snapshot = registry.snapshot()
            expected = _text(reference.snapshot())
            assert _text(snapshot) == expected
            taken.append((snapshot, expected))
            continue
        _apply(registry, op)
        _apply(reference, op)
    for snapshot, expected in taken:
        assert _text(snapshot) == expected
    assert _text(copy.deepcopy(registry.snapshot())) == taken[-1][1]
