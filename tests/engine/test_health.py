"""VodServer.health(): SLO verdicts, stage attribution, event tails.

The PR's acceptance scenario lives here: a faulted serve must surface
the violated SLO, the responsible pipeline stage and the correlated
critical events through one ``health()`` call.
"""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.recorder import Recorder
from repro.engine.vod import (
    ServeOptions,
    ServerHealth,
    SessionRequest,
    VodServer,
)
from repro.faults import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability, Severity


@pytest.fixture(scope="module")
def movie():
    video = video_object(frames.scene(64, 48, 25, "orbit"), "feature")
    return Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )


def requests(count):
    return [SessionRequest(client=f"c{i}", title="feature")
            for i in range(count)]


def serve(movie, bandwidth=2_000_000, clients=2, fault_plan=None, obs=None):
    server = VodServer(bandwidth=bandwidth, prefetch_depth=8, obs=obs)
    server.publish("feature", movie)
    server.serve(requests(clients),
                 ServeOptions(enforce_admission=False,
                              fault_plan=fault_plan))
    return server


class TestMeanDeliveredQuality:
    def test_no_admitted_sessions_is_zero(self, movie):
        """Regression: an empty batch used to claim perfect quality."""
        server = VodServer(bandwidth=1, prefetch_depth=8)
        server.publish("feature", movie)
        report = server.serve(requests(1))
        assert report.admitted_count == 0
        assert report.mean_delivered_quality() == 0.0

    def test_served_sessions_average_normally(self, movie):
        report = serve(movie)._reports[0]
        assert report.mean_delivered_quality() == 1.0


class TestHealthyServer:
    def test_clean_serve_is_ok(self, movie):
        health = serve(movie, obs=Observability()).health()
        assert isinstance(health, ServerHealth)
        assert health.status == "ok"
        assert health.ok
        assert health.sessions == 2
        assert health.clean == 2
        assert health.failed == 0
        assert all(v.ok for v in health.slo)
        assert health.recent_critical == ()

    def test_health_without_obs_still_counts_sessions(self, movie):
        health = serve(movie).health()
        assert health.sessions == 2
        assert health.slo == ()  # no policy without instrumentation
        assert health.dominant_stage is None

    def test_health_before_any_serve(self, movie):
        server = VodServer(bandwidth=2_000_000, obs=Observability())
        server.publish("feature", movie)
        health = server.health()
        assert health.status == "ok"
        assert health.sessions == 0

    def test_export_round_trips_to_sorted_dict(self, movie):
        import json

        health = serve(movie, obs=Observability()).health()
        exported = health.export()
        assert exported["status"] == "ok"
        json.dumps(exported)  # JSON-serializable


class TestFaultedHealth:
    def faulted_health(self, movie):
        obs = Observability()
        plan = FaultPlan(seed=7, transient_rate=0.5, bad_page_rate=0.3,
                         corruption_rate=0.1, degraded_fraction=1.0)
        server = serve(movie, bandwidth=15_000, clients=3,
                       fault_plan=plan, obs=obs)
        return server.health(), obs

    def test_violated_slo_surfaces(self, movie):
        health, _ = self.faulted_health(movie)
        assert health.status != "ok"
        violated = [v for v in health.slo if not v.ok]
        assert violated
        assert any(v.slo == "startup-latency" for v in violated)

    def test_responsible_stage_identified(self, movie):
        health, _ = self.faulted_health(movie)
        # Startup blew the SLO because recovery overhead (retries,
        # wasted probes) dominates the pipeline: the deliver stage.
        assert health.dominant_stage == "deliver"

    def test_correlated_critical_events_in_tail(self, movie):
        health, obs = self.faulted_health(movie)
        assert health.recent_critical
        assert all(event["severity"] in ("ERROR", "CRITICAL")
                   for event in health.recent_critical)
        # The tail is the newest slice of the full event log.
        full = [e.export() for e in
                obs.events.events(min_severity=Severity.ERROR)]
        assert list(health.recent_critical) == full[-10:]

    def test_summary_is_readable(self, movie):
        health, _ = self.faulted_health(movie)
        text = health.summary()
        assert "status:" in text
        assert "slo startup-latency" in text
        assert "dominant stage: deliver" in text
        assert "event [" in text

    def test_health_is_deterministic(self, movie):
        first, _ = self.faulted_health(movie)
        second, _ = self.faulted_health(movie)
        assert first.export() == second.export()


class TestCriticalHealth:
    def test_critical_burn_flips_status(self, movie):
        """A starved server burns the startup budget past the critical
        rate; aborted first attempts leave fallback + abort events."""
        from repro.engine.player import RetryPolicy

        obs = Observability()
        plan = FaultPlan(seed=7, transient_rate=0.5, bad_page_rate=0.3,
                         corruption_rate=0.1, degraded_fraction=1.0)
        server = VodServer(bandwidth=6_000, prefetch_depth=8, obs=obs)
        server.publish("feature", movie)
        server.serve(requests(2), ServeOptions(
            enforce_admission=False, fault_plan=plan,
            retry_policy=RetryPolicy(abort_skip_fraction=0.2),
        ))
        health = server.health()
        assert health.status == "critical"
        assert any(v.severity is Severity.CRITICAL for v in health.slo)
        names = {e.name for e in obs.events.events()}
        assert "playback.aborted" in names
        assert "session.fallback" in names

    def test_cache_hit_ratios_reported(self):
        """A title on a pooled page store whose pool reports into the
        server's sink: after two prefetches and a serve, health carries
        exactly the pool's hit ratio."""
        from repro.blob.blob import PagedBlob
        from repro.blob.pages import MemoryPager, PageStore
        from repro.cache import BufferPool

        obs = Observability()
        pool = BufferPool(64, obs=obs)
        store = PageStore(MemoryPager(page_size=512), buffer_pool=pool,
                          obs=obs)
        title = Recorder(PagedBlob(store)).record(
            [video_object(frames.scene(32, 24, 12, "pan"), "feature")],
        )
        server = VodServer(bandwidth=2_000_000, obs=obs)
        server.publish("feature", title)
        server.prefetch("feature")
        server.prefetch("feature")
        server.serve(requests(1), ServeOptions(enforce_admission=False))
        assert pool.hits and pool.misses
        assert server.health().cache_hit_ratios == {"pool": pool.hit_ratio}
