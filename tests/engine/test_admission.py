"""Admission on int loads, held to the exact-rational rule it replaced.

``VodServer`` and ``Fleet`` admit with one greedy loop over int loads:
each rated title's rate is a count of units of one scale per server, and
the bandwidth with margin is one int limit. ``tests/engine/reference.py``
keeps the ``Rational`` rule and loop they replaced; these tests hold the
ints to it request for request.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rational as rational_module
from repro.blob.blob import MemoryBlob
from repro.core.interpretation import Interpretation, PlacementEntry
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational, as_rational
from repro.engine.fleet import Fleet
from repro.engine.vod import SessionRequest, VodServer
from repro.errors import ResourceError

from tests.engine import reference

VIDEO = media_type_registry.get("pal-video")


def rated_title(*rates) -> Interpretation:
    """A one-element title with one sequence per rate; a rate of None
    leaves that sequence without ``average_data_rate``."""
    interpretation = Interpretation(MemoryBlob(b"x" * 10))
    for index, rate in enumerate(rates):
        extra = {} if rate is None else {"average_data_rate": rate}
        descriptor = VIDEO.make_media_descriptor(
            frame_rate=25, frame_width=8, frame_height=8, frame_depth=24,
            color_model="RGB", **extra,
        )
        interpretation.add(f"s{index}", VIDEO, descriptor,
                           [PlacementEntry(0, 0, 1, 10, 0)])
    return interpretation


def nine_digit_denominator(margin: float) -> bool:
    return len(str(as_rational(margin).denominator)) == 9


denominators = st.sampled_from([1, 2, 3, 7, 25, 1001, 30000, 999_999_937])
rates = st.builds(lambda n, d: Rational(n, d),
                  st.integers(0, 400), denominators)
# One to three sequences per title, so a title's rate may be a sum.
titles = st.lists(st.lists(rates, min_size=1, max_size=3),
                  min_size=1, max_size=4)
margins = st.one_of(
    st.sampled_from([1.0, 1.2, 1.1]),
    st.integers(1, 10**8 - 1).map(lambda k: 1 + k / 10**8)
    .filter(nine_digit_denominator),
)
# Small beside the summed rates, so requests get refused.
bandwidths = st.integers(1, 1_500)


def clients(picks, names):
    return [SessionRequest(client=f"c{i}", title=names[pick % len(names)])
            for i, pick in enumerate(picks)]


def same_decisions(ints, exact):
    """Admitted and rejected lists identical, in order."""
    return ([r.client for r in ints[0]], [r.client for r in ints[1]]) == \
        ([r.client for r in exact[0]], [r.client for r in exact[1]])


def capacity_or_error(decide, *args):
    try:
        return decide(*args)
    except ResourceError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(drawn=titles, margin=margins, bandwidth=bandwidths,
       picks=st.lists(st.integers(0, 3), max_size=30))
def test_server_admission_matches_the_rational_rule(drawn, margin,
                                                    bandwidth, picks):
    """Admission after every publish, so the scale is re-derived each
    time a title's rate brings a new denominator."""
    server = VodServer(bandwidth=bandwidth, admission_margin=margin,
                       plan_check="off")
    names = []
    for index, title_rates in enumerate(drawn):
        names.append(f"t{index}")
        server.publish(names[-1], rated_title(*title_rates))
        requests = clients(picks, names)
        assert same_decisions(
            server.admit(requests),
            reference.admit(requests, lambda title: server))
        for name in names:
            assert capacity_or_error(server.capacity, name) == \
                capacity_or_error(reference.capacity, server, name)


@settings(max_examples=100, deadline=None)
@given(drawn=titles, margin=margins, bandwidth=bandwidths,
       shards=st.integers(1, 4),
       picks=st.lists(st.integers(0, 3), max_size=40))
def test_fleet_admission_matches_the_rational_rule(drawn, margin, bandwidth,
                                                   shards, picks):
    fleet = Fleet(bandwidth=bandwidth, shards=shards, admission_margin=margin,
                  plan_check="off")
    names = [f"t{index}" for index in range(len(drawn))]
    for name, title_rates in zip(names, drawn):
        fleet.publish(name, rated_title(*title_rates))
    requests = clients(picks, names)

    def owner(title):
        return fleet.shard(fleet.route(title))

    assert same_decisions(fleet.admit(requests),
                          reference.admit(requests, owner))
    for name in names:
        exact = capacity_or_error(
            lambda: sum(reference.capacity(fleet.shard(shard), name)
                        for shard in fleet.live_shards))
        assert capacity_or_error(fleet.capacity, name) == exact


class TestUnratedTitle:
    """A title published without ``average_data_rate`` stays out of the
    admission scale: the rated titles beside it still admit, and
    requesting it raises :class:`ResourceError`."""

    def catalog(self):
        return {"a": rated_title(Rational(3, 7)),
                "bare": rated_title(Rational(5), None),
                "b": rated_title(Rational(5, 11), Rational(1, 3))}

    def test_server(self):
        server = VodServer(bandwidth=4, admission_margin=1.1)
        for name, interpretation in self.catalog().items():
            server.publish(name, interpretation)
        requests = clients([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], ["a", "b"])
        admitted, rejected = server.admit(requests)
        assert admitted and rejected
        assert same_decisions((admitted, rejected),
                              reference.admit(requests, lambda title: server))
        assert server.capacity("a") == reference.capacity(server, "a")
        with pytest.raises(ResourceError, match="average_data_rate"):
            server.admit(clients([0, 1], ["a", "bare"]))
        with pytest.raises(ResourceError, match="average_data_rate"):
            server.capacity("bare")

    def test_fleet(self):
        fleet = Fleet(bandwidth=4, shards=3, admission_margin=1.2)
        for name, interpretation in self.catalog().items():
            fleet.publish(name, interpretation)
        requests = clients(range(12), ["a", "b"])
        assert same_decisions(
            fleet.admit(requests),
            reference.admit(requests,
                            lambda title: fleet.shard(fleet.route(title))))
        with pytest.raises(ResourceError, match="average_data_rate"):
            fleet.admit(clients([0, 1], ["bare", "a"]))
        with pytest.raises(ResourceError, match="average_data_rate"):
            fleet.capacity("bare")


def test_warm_fleet_admission_builds_no_rational(monkeypatch):
    """Loads and rates are ints: once every title has routed, admitting
    40 requests over 3 shards constructs no ``Rational`` at all."""
    names = ("feature", "short", "news", "archive")
    fleet = Fleet(bandwidth=2_000_000, shards=3)
    for index, name in enumerate(names):
        fleet.publish(name, rated_title(Rational(10_000 + index, index + 1)))
    requests = clients(range(40), names)
    fleet.admit(requests)
    # Every Rational is built by the constructor, or by arithmetic, which
    # re-types Fraction's result through _closed and so the constructor
    # too: count each object once.
    built, inside = Counter(), Counter()
    new, closed = Rational.__new__, rational_module._closed

    def counted_new(cls, *args, **kwargs):
        if not inside["closed"]:
            built["constructed"] += 1
        return new(cls, *args, **kwargs)

    def counted_closed(value):
        if isinstance(value, Fraction) and not isinstance(value, Rational):
            built["arithmetic"] += 1
        inside["closed"] += 1
        try:
            return closed(value)
        finally:
            inside["closed"] -= 1

    monkeypatch.setattr(Rational, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(rational_module, "_closed", counted_closed)
    assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)
    assert built == {"constructed": 3, "arithmetic": 1}
    built.clear()
    admitted, rejected = fleet.admit(requests)
    assert len(admitted) == 40 and not rejected
    assert sum(built.values()) == 0, built
