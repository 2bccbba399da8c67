"""Tests for the sharded VOD fleet: routing, serving, failover, health."""

from collections import Counter

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.fleet import Fleet, place
from repro.engine.player import Player, RetryPolicy
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.errors import EngineError, SimulatedCrash
from repro.faults.crash import CrashInjector, CrashSite
from repro.faults.disk import SimulatedMedium
from repro.faults.plan import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability


def make_title(name, frame_count=25, size=48):
    video = video_object(frames.scene(size, size * 3 // 4, frame_count,
                                      "orbit"), name)
    return Recorder(MemoryBlob()).record(
        [video], encoders={name: JpegLikeCodec(quality=40).encode},
        interpretation_name=f"{name}-capture",
    )


@pytest.fixture(scope="module")
def movie():
    return make_title("feature")


@pytest.fixture(scope="module")
def short():
    return make_title("short", frame_count=12)


def build_fleet(movie, short, **kwargs):
    fleet = Fleet(bandwidth=2_000_000, shards=3, **kwargs)
    fleet.publish("feature", movie)
    fleet.publish("short", short)
    return fleet


def requests(n, title="feature"):
    return [SessionRequest(client=f"client-{i}", title=title)
            for i in range(n)]


#: Titles whose routes are checked against placement over the live set.
ROUTED = ["feature", "short"] + [f"t{i}" for i in range(40)]


class TestRouting:
    def test_deterministic(self):
        shards = ["shard0", "shard1", "shard2"]
        for title in ("feature", "short", "news", "archive-1994"):
            assert place(title, shards) == place(title, list(shards))

    def test_total(self):
        shards = ["shard0", "shard1", "shard2"]
        for i in range(50):
            assert place(f"title-{i}", shards) in shards

    def test_needs_a_live_shard(self):
        with pytest.raises(EngineError, match="at least one"):
            place("feature", [])

    def test_kill_only_moves_the_dead_shards_titles(self, movie, short):
        fleet = build_fleet(movie, short)
        titles = [f"t{i}" for i in range(40)]
        before = {t: place(t, fleet.live_shards) for t in titles}
        fleet.kill_shard("shard1")
        after = {t: place(t, fleet.live_shards) for t in titles}
        for title in titles:
            if before[title] != "shard1":
                assert after[title] == before[title]
            else:
                assert after[title] != "shard1"

    def test_route_uses_live_set(self, movie, short):
        fleet = build_fleet(movie, short)
        owner = fleet.route("feature")
        fleet.kill_shard(owner)
        assert fleet.route("feature") != owner
        assert fleet.route("feature") in fleet.live_shards

    def test_memoized_route_follows_every_shard_death(self):
        fleet = Fleet(bandwidth=2_000_000, shards=4)
        # Each round of routing memoizes every owner before the next death.
        for dead in (None, "shard2", "shard0", "shard3"):
            if dead is not None:
                fleet.kill_shard(dead)
            assert {t: fleet.route(t) for t in ROUTED} == {
                t: place(t, fleet.live_shards) for t in ROUTED}

    def test_whole_fleet_dead(self, movie, short):
        fleet = build_fleet(movie, short)
        for name in fleet.shard_names:
            fleet.kill_shard(name)
        with pytest.raises(EngineError, match="dead"):
            fleet.route("feature")


class TestCatalogAndAdmission:
    def test_publish_replicates(self, movie, short):
        fleet = build_fleet(movie, short)
        for name in fleet.shard_names:
            assert fleet.shard(name).titles() == ["feature", "short"]
        assert fleet.titles() == ["feature", "short"]

    def test_capacity_sums_live_shards(self, movie, short):
        fleet = build_fleet(movie, short)
        per_shard = fleet.shard("shard0").capacity("feature")
        assert fleet.capacity("feature") == 3 * per_shard
        fleet.kill_shard("shard2")
        assert fleet.capacity("feature") == 2 * per_shard

    def test_fleet_admission_uses_owning_shard_budget(self, movie, short):
        fleet = build_fleet(movie, short)
        owner_capacity = fleet.shard(
            fleet.route("feature")).capacity("feature")
        admitted, rejected = fleet.admit(requests(owner_capacity + 5))
        assert len(admitted) == owner_capacity
        assert len(rejected) == 5


class TestFleetServe:
    def test_merged_report(self, movie, short):
        fleet = build_fleet(movie, short)
        report = fleet.serve(requests(4) + requests(3, "short"))
        assert report.admitted_count == 7
        assert report.failed == []
        assert {s.identity for s in report.admitted} == {
            r.key for r in requests(4) + requests(3, "short")
        }

    def test_checkpoint_to_rejected(self, movie, short):
        fleet = build_fleet(movie, short, checkpoint_fs=SimulatedMedium())
        with pytest.raises(EngineError, match="manages shard checkpoints"):
            fleet.serve(requests(1),
                        ServeOptions(checkpoint_to="/x", checkpoint_fs=None))

    def test_scoped_metric_namespaces(self, movie, short):
        obs = Observability()
        fleet = build_fleet(movie, short, obs=obs)
        fleet.serve(requests(2))
        names = obs.metrics.names()
        owner = fleet.route("feature")
        assert f"{owner}.vod.requests" in names
        assert "fleet.requests" in names
        assert "vod.requests" not in names

    def test_unarmed_crash_propagates_without_checkpoint_fs(
            self, movie, short):
        owner = None
        probe = build_fleet(movie, short)
        owner = probe.route("feature")
        fleet = build_fleet(movie, short, crash={
            owner: CrashInjector(CrashSite("vod.serve.session", 1)),
        })
        with pytest.raises(SimulatedCrash):
            fleet.serve(requests(4))


class TestReplayMemo:
    """E13's structural claim: an unobserved, unfaulted, uniform-arrival
    serve plays each title for real once per shard batch and replays
    that report for every other session of the title."""

    TITLES = ("feature", "short", "news", "archive")

    @pytest.fixture(scope="class")
    def catalog(self):
        return {name: make_title(name, frame_count=6, size=16)
                for name in self.TITLES}

    def fleet(self, catalog):
        fleet = Fleet(bandwidth=2_000_000, shards=3)
        for name, interpretation in catalog.items():
            fleet.publish(name, interpretation)
        return fleet

    @staticmethod
    def serving(fleet, monkeypatch):
        """A stack whose top names the shard whose serve is running."""
        shard_of = {id(fleet.shard(name)): name for name in fleet.shard_names}
        serving = []
        serve = VodServer.serve

        def counted_serve(server, *args, **kwargs):
            serving.append(shard_of[id(server)])
            try:
                return serve(server, *args, **kwargs)
            finally:
                serving.pop()

        monkeypatch.setattr(VodServer, "serve", counted_serve)
        return serving

    def batch(self, sessions):
        return [SessionRequest(client=f"client-{i}",
                               title=self.TITLES[i % len(self.TITLES)])
                for i in range(sessions)]

    def routed(self, fleet):
        routed = Counter((fleet.route(title), title) for title in self.TITLES)
        assert len({shard for shard, _ in routed}) > 1
        return routed

    @pytest.mark.parametrize("sessions", [40, 400])
    def test_one_real_play_per_routed_shard_and_title(
            self, catalog, sessions, monkeypatch):
        fleet = self.fleet(catalog)
        serving = self.serving(fleet, monkeypatch)
        plays = Counter()
        play = Player.play

        def counted_play(player, reads, *args, **kwargs):
            # A serve title's one sequence is named after the title.
            plays[serving[-1], reads[0].label.split("[", 1)[0]] += 1
            return play(player, reads, *args, **kwargs)

        monkeypatch.setattr(Player, "play", counted_play)
        merged = fleet.serve(self.batch(sessions),
                             ServeOptions(enforce_admission=False))
        assert merged.admitted_count == sessions
        assert plays == self.routed(fleet)

    def test_deadlines_once_per_routed_shard_and_title(self, catalog,
                                                        monkeypatch):
        """Every real play takes its plan's cached deadlines: two
        whole-session batches compute them once per routed (shard,
        title), when the shard first plans the title."""
        fleet = self.fleet(catalog)
        serving = self.serving(fleet, monkeypatch)
        computed = Counter()
        deadlines = Player.deadlines

        def counted_deadlines(player, reads, *args, **kwargs):
            computed[serving[-1], reads[0].label.split("[", 1)[0]] += 1
            return deadlines(player, reads, *args, **kwargs)

        monkeypatch.setattr(Player, "deadlines", counted_deadlines)
        for sessions in (40, 41):
            merged = fleet.serve(self.batch(sessions),
                                 ServeOptions(enforce_admission=False))
            assert merged.admitted_count == sessions
        assert computed == self.routed(fleet)


class TestFailover:
    def run_failover(self, movie, short, clients=5, occurrence=2):
        probe = build_fleet(movie, short)
        owner = probe.route("feature")
        obs = Observability()
        fleet = build_fleet(
            movie, short, obs=obs,
            checkpoint_fs=SimulatedMedium(),
            crash={owner: CrashInjector(
                CrashSite("vod.serve.session", occurrence))},
        )
        report = fleet.serve(requests(clients))
        return fleet, report, owner, obs

    def test_crash_absorbed_and_accounted_exactly_once(self, movie, short):
        fleet, report, owner, _ = self.run_failover(movie, short)
        assert owner in fleet.dead_shards
        # occurrence=2 -> two sessions completed durably before the
        # crash; they carry over as recovered, the rest re-serve.
        assert report.recovered == 2
        assert report.recovered + report.admitted_count \
            + len(report.failed) == 5
        assert report.failed == []
        assert all(s.resumed for s in report.admitted)

    def test_routes_follow_the_survivors_after_failover(self, movie, short):
        fleet, _, owner, _ = self.run_failover(movie, short)
        assert owner not in fleet.live_shards
        assert {t: fleet.route(t) for t in ROUTED} == {
            t: place(t, fleet.live_shards) for t in ROUTED}

    def test_failover_health_rollup(self, movie, short):
        fleet, _, owner, _ = self.run_failover(movie, short)
        health = fleet.health()
        assert health.status == "degraded"
        assert owner in health.dead
        # Exactly-once accounting: identities that finished before the
        # crash are recovered; every displaced identity re-serves once.
        assert health.recovered == 2
        assert health.sessions == 3
        assert health.sessions + health.recovered == 5
        assert health.clean + health.underrun + health.degraded \
            + health.failed == health.sessions
        assert "fleet:" in health.summary()

    def test_failover_keeps_deadline_slo_green(self, movie, short):
        _, _, _, obs = self.run_failover(movie, short)
        fleet2, report, _, _ = self.run_failover(movie, short)
        health = fleet2.health()
        deadline = [v for v in health.slo
                    if v.slo == "deadline-miss-rate"]
        assert deadline, "deadline-miss-rate verdict missing"
        assert all(v.ok for v in deadline)

    def test_crash_before_any_checkpoint_reserves_whole_group(
            self, movie, short):
        fleet, report, owner, _ = self.run_failover(
            movie, short, occurrence=0)
        assert report.recovered == 0
        assert report.admitted_count + len(report.failed) == 5
        assert owner in fleet.dead_shards

    def test_later_batch_never_resumes_an_earlier_batchs_checkpoint(
            self, movie, short):
        # The owner finishes one batch, then dies at the first session
        # of the next, before that batch wrote any checkpoint: the next
        # batch re-serves whole instead of resuming the finished one.
        owner = build_fleet(movie, short).route("feature")
        fleet = build_fleet(
            movie, short, checkpoint_fs=SimulatedMedium(),
            crash={owner: CrashInjector(CrashSite("vod.serve.session", 1))},
        )
        fleet.serve(requests(1))
        late = [SessionRequest(client=f"late-{i}", title="feature")
                for i in range(2)]
        report = fleet.serve(late)
        assert fleet.dead_shards == [owner]
        assert report.recovered == 0
        assert sorted(s.identity for s in report.admitted) == \
            [r.key for r in late]


    def test_failover_keeps_each_requests_policy_and_arrival(
            self, movie, short):
        # Four staggered sessions that forbid retries, under transient
        # faults; the owner dies as the second one starts. The resumed
        # sessions keep their own retry policy and wait out the rest of
        # their arrival offsets instead of all starting at once.
        owner = build_fleet(movie, short).route("feature")
        fleet = build_fleet(
            movie, short, checkpoint_fs=SimulatedMedium(),
            crash={owner: CrashInjector(CrashSite("vod.serve.session", 1))},
        )
        no_retries = RetryPolicy(max_retries=0)
        report = fleet.serve(
            [SessionRequest(client=f"c{i}", title="feature",
                            arrival_time=i, retry_policy=no_retries)
             for i in range(4)],
            ServeOptions(fault_plan=FaultPlan(seed=3, transient_rate=0.3),
                         granularity="read"),
        )
        assert fleet.dead_shards == [owner]
        assert report.recovered == 1
        resumed = sorted(report.admitted, key=lambda s: s.client)
        assert [s.client for s in resumed] == ["c1", "c2", "c3"]
        assert all(s.resumed for s in resumed)
        for session in resumed:
            assert session.request.retry_policy == no_retries
            assert session.report.retries == 0
            assert session.report.skipped_elements > 0
        arrivals = [s.request.arrival_time for s in resumed]
        assert 0 < arrivals[0] < 1
        assert arrivals[1] - arrivals[0] == 1
        assert arrivals[2] - arrivals[1] == 1


class TestFleetHealth:
    def test_clean_fleet_is_ok(self, movie, short):
        fleet = build_fleet(movie, short)
        fleet.serve(requests(3))
        health = fleet.health()
        assert health.ok
        assert health.sessions == 3 and health.clean == 3
        assert health.dead == ()
        exported = health.export()
        assert exported["status"] == "ok"
        assert set(exported["shards"]) == set(fleet.shard_names)

    def test_admin_kill_degrades_status(self, movie, short):
        fleet = build_fleet(movie, short)
        fleet.serve(requests(2))
        fleet.kill_shard("shard0")
        assert fleet.health().status == "degraded"

    def test_rejections_counted_distinctly(self, movie, short):
        fleet = build_fleet(movie, short)
        owner_capacity = fleet.shard(
            fleet.route("feature")).capacity("feature")
        fleet.serve(requests(owner_capacity + 3))
        assert fleet.health().rejected == 3


class TestFleetTelemetry:
    def overloaded_serve(self, movie, short):
        from repro.core.rational import Rational
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        fleet = Fleet(bandwidth=21_000, shards=3,
                      obs=Observability(), telemetry=telemetry)
        fleet.publish("feature", movie)
        fleet.publish("short", short)
        transitions = []

        def watch(alert, at):
            health = fleet.health()
            transitions.append((str(at), alert.name, alert.state,
                                health.status,
                                tuple(a["name"]
                                      for a in health.firing_alerts)))

        telemetry.alerts.on_transition = watch
        fleet.serve(
            [SessionRequest(client=f"client-{i}", title="feature",
                            arrival_time=Rational(i, 8))
             for i in range(6)],
            ServeOptions(enforce_admission=False),
        )
        return fleet, telemetry, transitions

    def test_alert_lifecycle_runs_during_fleet_serve(self, movie, short):
        fleet, telemetry, transitions = self.overloaded_serve(movie, short)
        states = [t[2] for t in transitions]
        assert "pending" in states and "firing" in states
        assert "resolved" in states
        # mid-serve, a firing alert degrades fleet health and is named
        firing = [t for t in transitions if t[2] == "firing"]
        assert firing
        for _, name, _, status, firing_names in firing:
            assert status != "ok"
            assert name in firing_names
        assert fleet.telemetry is telemetry

    def test_fleet_scrapes_are_byte_identical_across_runs(self, movie,
                                                          short):
        first = self.overloaded_serve(movie, short)[1]
        second = self.overloaded_serve(movie, short)[1]
        assert first.store.dump() == second.store.dump()
        assert first.store.alert_rows() == second.store.alert_rows()

    def test_dead_shards_alerts_cool_after_failover(self):
        # The owner dies mid-batch while its burn-rate alerts are hot;
        # its batch never reaches its own drain, so failover must cool
        # them or they stay active for the fleet's lifetime.
        from repro.core.rational import Rational
        from repro.obs.telemetry import Telemetry

        movie = make_title("feature", frame_count=20)

        def build(**kwargs):
            fleet = Fleet(bandwidth=21_000, shards=3, **kwargs)
            fleet.publish("feature", movie)
            return fleet

        owner = build().route("feature")
        telemetry = Telemetry()
        fleet = build(
            obs=Observability(), telemetry=telemetry,
            checkpoint_fs=SimulatedMedium(),
            crash={owner: CrashInjector(CrashSite("vod.serve.session", 10))},
        )
        fleet.serve(
            [SessionRequest(client=f"client-{i}", title="feature",
                            arrival_time=Rational(i, 4))
             for i in range(16)],
            ServeOptions(enforce_admission=False),
        )
        assert fleet.dead_shards == [owner]
        fired = {(row["alert"], row["source"])
                 for row in telemetry.store.alert_rows()
                 if row["state"] == "firing"}
        assert ("deadline-miss-burn", owner) in fired
        assert telemetry.alerts.active() == []
        assert fleet.health().firing_alerts == ()
