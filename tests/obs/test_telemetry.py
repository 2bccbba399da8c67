"""Tests for the clock-driven telemetry pipeline.

Store rollups (delta / rate / windowed quantile via bucket merges),
the read rule (only samples at or before ``at`` count, across every
source), burn-rate rules, the alert state machine, the scraper's
kernel integration, the mid-serve health degradation, and the
byte-identity contract of :meth:`TelemetryStore.dump`.
"""

import copy
import json

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine.fleet import Fleet
from repro.engine.kernel import EventLoop
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.errors import ObservabilityError
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability, Severity
from repro.obs.slo import Slo, default_slo_policy
from repro.obs.telemetry import (
    AlertManager,
    BurnRateRule,
    Telemetry,
    TelemetryStore,
    default_burn_rate_rules,
)


def counter_snapshot(name, value, **labels):
    series = {"value": value}
    if labels:
        series["labels"] = labels
    return {name: {"type": "counter", "series": [series]}}


def scrape_counter(store, values, name="hits", source="srv", step=1):
    """Record one counter series at t = step, 2*step, ..."""
    for tick, value in enumerate(values, start=1):
        store.record_scrape(source, Rational(tick * step),
                            counter_snapshot(name, value))


class TestStoreRollups:
    def test_delta_over_trailing_window(self):
        store = TelemetryStore()
        scrape_counter(store, [0, 10, 25, 45])
        assert store.delta("hits", window=2) == 45 - 10
        assert store.delta("hits", window=3) == 45 - 0
        assert store.rate("hits", window=2) == (45 - 10) / 2.0

    def test_series_born_inside_window_counts_from_zero(self):
        store = TelemetryStore()
        store.record_scrape("srv", Rational(10),
                            counter_snapshot("hits", 7))
        assert store.delta("hits", window=1, at=Rational(10)) == 7

    def test_delta_at_a_past_time_uses_only_older_samples(self):
        store = TelemetryStore()
        scrape_counter(store, [0, 10, 25, 45])
        # time travel: at t=3 the newest reading is 25
        assert store.delta("hits", window=2, at=Rational(3)) == 25 - 0

    def test_default_time_reads_only_samples_up_to_the_newest_scrape(self):
        # shard0 runs ahead to t=12 before shard1 scrapes up to t=5:
        # the newest scrape is t=5, so shard0's later samples are in
        # the future of the default read time and must not count
        store = TelemetryStore()
        scrape_counter(store, [10 * t for t in range(1, 13)],
                       source="shard0")
        scrape_counter(store, list(range(1, 6)), source="shard1")
        assert store.latest_time() == Rational(5)
        assert store.delta("hits", window=1) == 11
        assert store.delta("hits", window=1) == \
            store.delta("hits", window=1, at=Rational(5))
        assert store.delta("hits", window=1, at=Rational(49, 10)) == 11
        # the raw feed still holds every sample
        assert [len(s) for s in store.series("hits").values()] == [12, 5]

    def test_a_source_cannot_scrape_back_in_time(self):
        store = TelemetryStore()
        scrape_counter(store, [1, 2])
        with pytest.raises(ObservabilityError):
            store.record_scrape("srv", Rational(1), counter_snapshot("hits", 3))
        # another source keeps its own clock, and equal times are fine
        store.record_scrape("edge", Rational(1), counter_snapshot("hits", 1))
        store.record_scrape("srv", Rational(2), counter_snapshot("hits", 3))
        assert store.scrape_count == 4

    def test_suffix_match_covers_shard_prefixes(self):
        store = TelemetryStore()
        store.record_scrape("shard0", Rational(1), counter_snapshot(
            "shard0.engine.play.underruns", 4))
        store.record_scrape("shard1", Rational(1), counter_snapshot(
            "shard1.engine.play.underruns", 2))
        assert store.delta("engine.play.underruns", window=1,
                           at=Rational(1)) == 6
        assert store.delta("engine.play.underruns", window=1,
                           at=Rational(1), source="shard1") == 2

    def test_delta_field_and_window_validation(self):
        store = TelemetryStore()
        with pytest.raises(ObservabilityError):
            store.delta("hits", window=1, field="bogus")
        with pytest.raises(ObservabilityError):
            store.series("hits", field="bogus")
        scrape_counter(store, [1])
        with pytest.raises(ObservabilityError):
            store.delta("hits", window=0)

    def test_empty_store_rolls_up_to_zero(self):
        store = TelemetryStore()
        assert store.delta("hits", window=1) == 0.0
        assert store.quantile("lat", 0.5, window=1) == 0.0
        assert store.latest_time() is None

    def test_metric_kinds_and_census(self):
        store = TelemetryStore()
        scrape_counter(store, [1])
        assert store.metrics() == ["hits"]
        assert store.metric_kinds() == {"hits": "counter"}
        assert store.sources() == ["srv"]
        assert store.scrape_count == 1

    def test_readings_are_kept_as_floats_or_none(self):
        store = TelemetryStore()
        store.record_scrape("srv", Rational(1), {"g": {
            "type": "gauge", "series": [
                {"labels": {"r": "int"}, "value": 7},
                {"labels": {"r": "nan"}, "value": float("nan")},
                {"labels": {"r": "bool"}, "value": False},
            ]}})
        values = {key[2]: samples[0][1]
                  for key, samples in store.series("g").items()}
        assert values == {'{"r": "int"}': 7.0, '{"r": "nan"}': None,
                          '{"r": "bool"}': None}
        assert type(values['{"r": "int"}']) is float

    def test_close_drops_every_row(self):
        with TelemetryStore() as store:
            scrape_counter(store, [1, 2])
            store.record_alert("r", "srv", "pending", Rational(2), 2.0, 1.0)
        assert store.scrape_count == 0
        assert store.latest_time() is None
        assert store.dump() == "\n"
        # an emptied store takes scrapes again, from any time
        scrape_counter(store, [5])
        assert store.delta("hits", window=1) == 5


def hist_snapshot(name, counts, total, buckets=(0.1, 1.0)):
    return {name: {"type": "histogram", "series": [{"value": {
        "buckets": list(buckets), "counts": list(counts),
        "count": sum(counts), "sum": total,
    }}]}}


class TestStoreQuantile:
    def test_windowed_quantile_merges_bucket_deltas(self):
        store = TelemetryStore()
        store.record_scrape("srv", Rational(1),
                            hist_snapshot("lat", [5, 0, 0], 0.1))
        # window (1, 2]: 10 new observations, all in the second bucket
        store.record_scrape("srv", Rational(2),
                            hist_snapshot("lat", [5, 10, 0], 4.0))
        q = store.quantile("lat", 0.5, window=1, at=Rational(2))
        assert 0.1 < q <= 1.0
        # the whole history includes the 5 fast observations
        q_all = store.quantile("lat", 0.25, window=2, at=Rational(2))
        assert q_all <= 0.1

    def test_overflow_ranks_clamp_to_last_boundary(self):
        store = TelemetryStore()
        store.record_scrape("srv", Rational(1),
                            hist_snapshot("lat", [0, 0, 0], 0.0))
        store.record_scrape("srv", Rational(2),
                            hist_snapshot("lat", [0, 0, 9], 90.0))
        assert store.quantile("lat", 0.99, window=1, at=Rational(2)) == 1.0

    def test_quantile_bounds_validation(self):
        store = TelemetryStore()
        with pytest.raises(ObservabilityError):
            store.quantile("lat", 1.5, window=1)


class TestDump:
    def test_dump_is_byte_identical_for_identical_writes(self):
        def build():
            store = TelemetryStore()
            scrape_counter(store, [0, 3, 9])
            store.record_scrape("srv", Rational(4),
                                hist_snapshot("lat", [1, 2, 3], 5.5))
            store.record_alert("r", "srv", "pending", Rational(4), 2.0, 1.0)
            return store
        assert build().dump() == build().dump()

    def test_dump_carries_exact_timestamps(self):
        store = TelemetryStore()
        store.record_scrape("srv", Rational(1, 3), counter_snapshot("c", 1))
        assert '"at": "1/3"' in store.dump()

    def test_alert_rows_in_transition_order(self):
        store = TelemetryStore()
        store.record_alert("r", "srv", "pending", Rational(1), 2.0, 0.5)
        store.record_alert("r", "srv", "firing", Rational(2), 3.0, 2.0)
        states = [row["state"] for row in store.alert_rows()]
        assert states == ["pending", "firing"]


class TestBurnRateRule:
    def test_window_and_threshold_validation(self):
        slo = Slo(name="x", measurement="deadline_miss_rate", threshold=0.1)
        with pytest.raises(ObservabilityError):
            BurnRateRule(name="r", slo=slo, numerator="m",
                         short_window=4, long_window=1)
        with pytest.raises(ObservabilityError):
            BurnRateRule(name="r", slo=slo, numerator="m",
                         short_window=0)
        with pytest.raises(ObservabilityError):
            BurnRateRule(name="r", slo=slo, numerator="m",
                         burn_threshold=0.0)

    def test_measured_ratio_and_per_second(self):
        store = TelemetryStore()
        for tick, (err, total) in enumerate([(0, 0), (5, 50)], start=1):
            snap = {}
            snap.update(counter_snapshot("errors", err))
            snap.update(counter_snapshot("requests", total))
            store.record_scrape("srv", Rational(tick), snap)
        slo = Slo(name="x", measurement="deadline_miss_rate", threshold=0.05)
        ratio_rule = BurnRateRule(name="ratio", slo=slo, numerator="errors",
                                  denominator="requests")
        assert ratio_rule.measured(store, "srv", Rational(2), 1) == 0.1
        rate_rule = BurnRateRule(name="rate", slo=slo, numerator="errors")
        assert rate_rule.measured(store, "srv", Rational(2), 1) == 5.0

    def test_default_rules_cover_windowable_slos(self):
        names = {rule.name for rule in default_burn_rate_rules()}
        assert names == {"deadline-miss-burn", "rebuffer-burn"}
        for rule in default_burn_rate_rules(default_slo_policy()):
            assert rule.short_window < rule.long_window


class TestAlertLifecycle:
    def make_manager(self, store):
        slo = Slo(name="err", measurement="deadline_miss_rate",
                  threshold=0.05)
        rule = BurnRateRule(name="err-burn", slo=slo, numerator="errors",
                            denominator="requests",
                            short_window=Rational(1), long_window=Rational(2))
        return AlertManager((rule,), store)

    def feed(self, store, tick, errors, requests):
        snap = {}
        snap.update(counter_snapshot("errors", errors))
        snap.update(counter_snapshot("requests", requests))
        store.record_scrape("srv", Rational(tick), snap)

    def test_pending_firing_resolved(self):
        store = TelemetryStore()
        manager = self.make_manager(store)

        self.feed(store, 1, 0, 100)
        assert manager.evaluate("srv", Rational(1)) == []

        # hot short window only -> pending
        self.feed(store, 2, 50, 200)
        (alert,) = manager.evaluate("srv", Rational(2))
        assert alert.state == "pending"

        # both windows hot -> firing
        self.feed(store, 3, 120, 300)
        (alert,) = manager.evaluate("srv", Rational(3))
        assert alert.state == "firing"
        assert manager.firing() == [alert]

        # short window cools -> resolved
        self.feed(store, 4, 120, 400)
        (alert,) = manager.evaluate("srv", Rational(4))
        assert alert.state == "resolved"
        assert manager.active() == []
        states = [row["state"] for row in store.alert_rows()]
        assert states == ["pending", "firing", "resolved"]
        assert [s for s, _ in alert.transitions] == states

    def test_pending_cancels_when_short_cools(self):
        store = TelemetryStore()
        manager = self.make_manager(store)
        self.feed(store, 1, 0, 100)
        manager.evaluate("srv", Rational(1))
        self.feed(store, 2, 50, 200)
        (alert,) = manager.evaluate("srv", Rational(2))
        assert alert.state == "pending"
        self.feed(store, 3, 50, 300)
        (alert,) = manager.evaluate("srv", Rational(3))
        assert alert.state == "inactive"

    def test_transitions_recorded_as_events_and_counter(self):
        store = TelemetryStore()
        manager = self.make_manager(store)
        obs = Observability()
        self.feed(store, 1, 0, 100)
        manager.evaluate("srv", Rational(1), events=obs.events,
                         metrics=obs.metrics)
        self.feed(store, 2, 50, 200)
        manager.evaluate("srv", Rational(2), events=obs.events,
                         metrics=obs.metrics)
        (event,) = obs.events.events()
        assert event.name == "alert.pending"
        assert event.severity is Severity.WARNING
        assert event.at == Rational(2)
        counter = obs.metrics.get("telemetry.alert.transitions")
        assert counter.total() == 1

    def test_duplicate_rule_names_rejected(self):
        store = TelemetryStore()
        slo = Slo(name="x", measurement="deadline_miss_rate", threshold=1.0)
        rule = BurnRateRule(name="dup", slo=slo, numerator="m")
        with pytest.raises(ObservabilityError):
            AlertManager((rule, rule), store)


class TestScraperKernel:
    def test_scraper_samples_on_interval_and_stops_with_loop(self):
        obs = Observability()
        obs.metrics.counter("work.items")
        loop = EventLoop(frequency=4)

        def work(step):
            obs.metrics.counter("work.items").inc()
            if step < 8:
                loop.after_ticks(1, work, step + 1)

        telemetry = Telemetry(interval=Rational(1, 2), rules=())
        loop.after_ticks(0, work, 0)
        telemetry.attach(loop, obs, "job")
        loop.run()
        # work spans [0, 2]; scrapes land at 1/2, 1, 3/2, 2 and one
        # trailing scrape at 5/2 (the t=2 scrape still sees the final
        # work event pending) — after which the timer stops for good
        assert telemetry.store.scrape_count == 5
        assert telemetry.store.latest_time() == Rational(5, 2)
        assert loop.pending == 0

    def test_scrape_interval_validation(self):
        with pytest.raises(ObservabilityError):
            Telemetry(interval=0)

    def test_overflow_counter_mirrors_histogram_saturation(self):
        obs = Observability()
        hist = obs.metrics.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(50.0)
        hist.observe(60.0)
        telemetry = Telemetry(rules=())
        telemetry.sample(obs, "srv", at=Rational(1))
        counter = obs.metrics.get("telemetry.histogram.overflow")
        assert counter.value(metric="lat") == 2
        # no double counting on the next sample
        telemetry.sample(obs, "srv", at=Rational(2))
        assert obs.metrics.get(
            "telemetry.histogram.overflow").value(metric="lat") == 2


def make_movie():
    video = video_object(frames.scene(48, 36, 20, "orbit"), "feature")
    return Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )


def overloaded_serve(movie, telemetry):
    server = VodServer(21_000, obs=Observability(), telemetry=telemetry)
    server.publish("feature", movie)
    server.serve(
        [SessionRequest(client=f"client-{i}", title="feature",
                        arrival_time=Rational(i, 8)) for i in range(6)],
        ServeOptions(enforce_admission=False),
    )
    return server


@pytest.fixture(scope="module")
def movie():
    return make_movie()


class TestServeIntegration:
    def test_alert_fires_and_resolves_during_serve(self, movie):
        telemetry = Telemetry()
        mid_serve = []
        server_box = []

        def observe(alert, at):
            health = server_box[0].health()
            mid_serve.append((alert.name, alert.state, health.status,
                              tuple(a["name"] for a in
                                    health.firing_alerts)))

        telemetry.alerts.on_transition = observe
        server = VodServer(21_000, obs=Observability(),
                           telemetry=telemetry)
        server_box.append(server)
        server.publish("feature", movie)
        server.serve(
            [SessionRequest(client=f"client-{i}", title="feature",
                            arrival_time=Rational(i, 8))
             for i in range(6)],
            ServeOptions(enforce_admission=False),
        )
        states = [state for _, state, _, _ in mid_serve]
        assert "pending" in states and "firing" in states \
            and "resolved" in states
        # while firing, health() already reports it and degrades
        firing_rows = [row for row in mid_serve if row[1] == "firing"]
        assert firing_rows
        for name, _, status, firing_names in firing_rows:
            assert status != "ok"
            assert name in firing_names
        # after the serve the alerts have cooled: health keeps the
        # resolved alerts visible but none firing
        health = server.health()
        assert health.firing_alerts == ()
        assert {a["state"] for a in health.alerts} == {"resolved"}

    def test_same_seed_serves_dump_byte_identically(self, movie):
        first = Telemetry()
        overloaded_serve(movie, first)
        second = Telemetry()
        overloaded_serve(movie, second)
        assert first.store.dump() == second.store.dump()
        assert first.store.alert_rows() == second.store.alert_rows()

    def test_second_serve_continues_the_servers_clock(self, movie):
        telemetry = Telemetry()
        server = overloaded_serve(movie, telemetry)
        transitions = len(telemetry.store.alert_rows())
        assert transitions > 0
        # two sessions fit the bandwidth: served alone they raise no
        # alert, and after the overloaded batch they must not either
        server.serve(
            [SessionRequest(client=f"late-{i}", title="feature",
                            arrival_time=Rational(i, 8)) for i in range(2)],
            ServeOptions(enforce_admission=False),
        )
        assert len(telemetry.store.alert_rows()) == transitions
        times: dict[str, list[Rational]] = {}
        for line in telemetry.store.dump().splitlines():
            row = json.loads(line)
            if "source" in row and "scrape" in row:
                times.setdefault(row["source"], []).append(
                    Rational(row["at"]))
        assert list(times) == ["server"]
        assert times["server"] == sorted(times["server"])

    def test_underrun_series_has_a_time_axis(self, movie):
        telemetry = Telemetry()
        overloaded_serve(movie, telemetry)
        series = telemetry.store.series("engine.play.underruns")
        (samples,) = series.values()
        values = [v for _, v in samples]
        assert values[-1] > 0
        assert values[0] < values[-1]  # accrued over the run, not at once


def timelines(store):
    """Every stored series with its sample times, field by field."""
    return {(metric, field): store.series(metric, field=field)
            for metric in store.metrics()
            for field in ("value", "count", "total")}


class TestDeltaScrapes:
    def test_restamped_store_dumps_as_one_fed_deep_copies(self):
        """A fleet serve's scrapes hand the store kept bodies; a twin
        store fed a deep copy of every snapshot walks every body, and
        both dump byte for byte alike."""
        telemetry = Telemetry()
        twin = TelemetryStore()
        store = telemetry.store
        record_scrape, record_alert = store.record_scrape, store.record_alert
        previous: dict[str, dict] = {}
        handed_again = []

        def record_both(source, at, snapshot):
            handed_again.extend(name for name, body in snapshot.items()
                                if previous.get(source, {}).get(name) is body)
            previous[source] = snapshot
            twin.record_scrape(source, at, copy.deepcopy(snapshot))
            return record_scrape(source, at, snapshot)

        def alert_both(*args):
            twin.record_alert(*args)
            return record_alert(*args)

        store.record_scrape, store.record_alert = record_both, alert_both
        fleet = Fleet(bandwidth=6_000, shards=3, obs=Observability(),
                      telemetry=telemetry)
        for index, frame_count in enumerate((20, 16, 12)):
            video = video_object(frames.scene(48, 36, frame_count, "orbit"),
                                 f"title{index}")
            fleet.publish(f"title{index}", Recorder(MemoryBlob()).record(
                [video], encoders={f"title{index}":
                                   JpegLikeCodec(quality=40).encode}))
        fleet.serve(
            [SessionRequest(client=f"client-{i}", title=f"title{i % 3}",
                            arrival_time=Rational(i, 4)) for i in range(6)],
            ServeOptions(enforce_admission=False, granularity="read"),
        )
        assert handed_again and store.alert_rows()
        assert store.dump() == twin.dump()
        assert timelines(store) == timelines(twin)

    def test_a_body_handed_again_is_restamped(self):
        store = TelemetryStore()
        snapshot = counter_snapshot("hits", 3, kind="a")
        snapshot.update(counter_snapshot("idle", 7))
        store.record_scrape("srv", Rational(1), snapshot)
        store.record_scrape("srv", Rational(2), dict(snapshot))
        twin = TelemetryStore()
        for at in (1, 2):
            twin.record_scrape("srv", Rational(at), copy.deepcopy(snapshot))
        assert store.dump() == twin.dump()
        assert timelines(store) == timelines(twin)
        assert store.series("idle") == {
            ("srv", "idle", "{}"): [(Rational(1), 7.0), (Rational(2), 7.0)]}
