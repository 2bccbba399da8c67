"""The tentpole guarantee: same-seed faulted runs export identically.

Two full ``VodServer.serve`` runs against the same fault plan, each with
a fresh observability sink, must produce byte-identical JSON-lines
exports — every counter, histogram bucket and span timestamp derives
from simulated or logical time, never the wall clock.
"""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.faults import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import (
    Observability,
    Severity,
    to_chrome_trace,
    to_json_lines,
)


def requests(count):
    return [SessionRequest(client=f"c{i}", title="feature")
            for i in range(count)]


@pytest.fixture(scope="module")
def movie():
    video = video_object(frames.scene(64, 48, 25, "orbit"), "feature")
    return Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )


def faulted_run(movie, event_capacity=1024):
    obs = Observability(event_capacity=event_capacity)
    server = VodServer(bandwidth=2_000_000, prefetch_depth=8, obs=obs)
    server.publish("feature", movie)
    plan = FaultPlan(seed=55, transient_rate=0.2, bad_page_rate=0.1,
                     corruption_rate=0.1, degraded_fraction=0.3)
    server.serve(requests(3), ServeOptions(fault_plan=plan))
    return obs


def faulted_export(movie):
    return to_json_lines(faulted_run(movie))


def starved_run(movie):
    """A bandwidth-starved, heavily faulted serve: retries, skips and
    SLO violations all occur."""
    obs = Observability()
    server = VodServer(bandwidth=15_000, prefetch_depth=8, obs=obs)
    server.publish("feature", movie)
    plan = FaultPlan(seed=7, transient_rate=0.5, bad_page_rate=0.3,
                     corruption_rate=0.1, degraded_fraction=1.0)
    server.serve(requests(3),
                 ServeOptions(enforce_admission=False, fault_plan=plan))
    return obs


class TestDeterminism:
    def test_same_seed_runs_export_byte_identically(self, movie):
        first = faulted_export(movie)
        second = faulted_export(movie)
        assert first == second

    def test_export_actually_captured_faulted_playback(self, movie):
        text = faulted_export(movie)
        assert "faults.injected" in text
        assert "vod.session" in text
        assert "engine.play" in text

    def test_different_seed_diverges(self, movie):
        def export_with_seed(seed):
            obs = Observability()
            server = VodServer(bandwidth=2_000_000, prefetch_depth=8,
                               obs=obs)
            server.publish("feature", movie)
            plan = FaultPlan(seed=seed, transient_rate=0.3,
                             bad_page_rate=0.1)
            server.serve(requests(1), ServeOptions(fault_plan=plan))
            return to_json_lines(obs)

        assert export_with_seed(1) != export_with_seed(2)

    def test_clean_playback_also_deterministic(self, movie):
        def clean_export():
            obs = Observability()
            server = VodServer(bandwidth=2_000_000, prefetch_depth=8,
                               obs=obs)
            server.publish("feature", movie)
            server.serve(requests(1))
            return to_json_lines(obs)

        assert clean_export() == clean_export()

    def test_cached_runs_export_byte_identically(self):
        """The caching layer honors the contract too: with a buffer
        pool under the page store and a derivation cache on the server,
        hit/miss/eviction metrics replay byte-identically."""
        from repro.blob.blob import PagedBlob
        from repro.blob.pages import MemoryPager, PageStore
        from repro.cache import BufferPool, DerivationCache

        def cached_export():
            obs = Observability()
            pool = BufferPool(32, obs=obs)
            store = PageStore(MemoryPager(page_size=512), checksums=True,
                              buffer_pool=pool, obs=obs)
            title = Recorder(PagedBlob(store)).record(
                [video_object(frames.scene(32, 24, 12, "pan"), "feature")],
            )
            cache = DerivationCache(budget_bytes=1 << 20, obs=obs)
            server = VodServer(bandwidth=2_000_000, prefetch_depth=8,
                               derivation_cache=cache, obs=obs)
            server.publish("feature", title)
            server.prefetch("feature")
            server.serve(requests(2))
            server.prefetch("feature")
            return to_json_lines(obs)

        first = cached_export()
        second = cached_export()
        assert first == second
        assert "cache.pool.hits" in first
        assert "vod.prefetch" in first


class TestFlightRecorderDeterminism:
    def test_same_seed_event_logs_identical(self, movie):
        first = faulted_run(movie).events.export()
        second = faulted_run(movie).events.export()
        assert first == second
        assert first  # faults were actually recorded

    def test_chrome_trace_byte_identical(self, movie):
        assert to_chrome_trace(faulted_run(movie)) == \
            to_chrome_trace(faulted_run(movie))

    def test_events_capture_faults_and_slo(self, movie):
        """A starved, heavily-faulted serve records the full event mix:
        retries, skipped elements and SLO violations."""
        recorder = starved_run(movie).events
        names = {e.name for e in recorder.events()}
        assert "read.retry" in names
        assert "element.skipped" in names
        assert "slo.violation" in names

    def test_ring_overflow_keeps_newest(self, movie):
        full = faulted_run(movie).events
        assert full.dropped == 0
        capacity = max(len(full) // 2, 1)
        clipped = faulted_run(movie, event_capacity=capacity).events
        assert len(clipped) == capacity
        assert clipped.dropped == len(full) - capacity
        # The retained window is exactly the tail of the full log.
        assert clipped.export() == full.export()[-capacity:]

    def test_severity_filter_is_ordered(self, movie):
        recorder = starved_run(movie).events
        all_events = recorder.events()
        errors = recorder.events(min_severity=Severity.ERROR)
        assert errors
        assert len(errors) < len(all_events)
        assert all(e.severity >= Severity.ERROR for e in errors)
        # Filtering preserves emission order.
        sequence = [e.seq for e in errors]
        assert sequence == sorted(sequence)
