"""Tests for VOD failover under storage faults."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine.player import AdaptationPolicy, RetryPolicy
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.faults import FaultPlan
from repro.media import frames
from repro.media.objects import video_object


@pytest.fixture(scope="module")
def movie():
    video = video_object(frames.scene(64, 48, 25, "orbit"), "feature")
    return Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )


@pytest.fixture
def server(movie):
    server = VodServer(bandwidth=2_000_000, prefetch_depth=8)
    server.publish("feature", movie)
    return server


def requests(n):
    return [SessionRequest(client=f"c{i}", title="feature") for i in range(n)]


class TestFaultedServing:
    def test_serve_with_faults_never_raises(self, server):
        plan = FaultPlan(seed=55, transient_rate=0.2, bad_page_rate=0.1,
                         corruption_rate=0.1, degraded_fraction=0.3)
        report = server.serve(requests(3), ServeOptions(fault_plan=plan))
        assert report.admitted_count + report.failed_sessions() == 3

    def test_faulted_sessions_account_as_degraded(self, server):
        plan = FaultPlan(seed=55, page_size=512, bad_page_rate=0.15)
        report = server.serve(requests(2), ServeOptions(fault_plan=plan))
        assert report.degraded_sessions() > 0
        assert report.clean_sessions() + report.underrun_sessions() >= 0
        total = report.degraded_sessions() + sum(
            1 for s in report.admitted
            if not report._is_degraded(s)
        )
        assert total == report.admitted_count

    def test_aborting_session_is_readmitted_degraded(self, server):
        plan = FaultPlan(seed=55, page_size=512, bad_page_rate=0.5)
        strict = RetryPolicy(abort_skip_fraction=0.01)
        report = server.serve(requests(2), ServeOptions(
            fault_plan=plan, retry_policy=strict))
        # The strict policy aborts first service; the server re-admits
        # in fallback mode rather than propagating or dropping.
        assert report.admitted_count == 2
        assert report.degraded_sessions() == 2
        assert all(s.degraded for s in report.admitted)
        assert report.failed_sessions() == 0

    def test_adaptation_degrades_instead_of_underrunning(self, server):
        plan = FaultPlan(seed=66, degraded_fraction=0.7, degradation_span=8,
                         degraded_bandwidth_factor=Rational(1, 4))
        adapted = server.serve(requests(2), ServeOptions(
            fault_plan=plan, adaptation=AdaptationPolicy(levels=3),
        ))
        assert adapted.mean_delivered_quality() < 1.0
        assert adapted.degraded_sessions() == 2

    def test_same_seed_serves_identically(self, server):
        plan = FaultPlan(seed=77, transient_rate=0.2, bad_page_rate=0.05)
        a = server.serve(requests(3), ServeOptions(fault_plan=plan))
        b = server.serve(requests(3), ServeOptions(fault_plan=plan))
        assert a == b

    def test_clean_serving_unchanged_by_fault_machinery(self, server):
        before = server.serve(requests(2))
        after = server.serve(requests(2), ServeOptions(fault_plan=None))
        assert before == after
        assert before.degraded_sessions() == 0
        assert before.failed_sessions() == 0
        assert before.clean_sessions() == 2
