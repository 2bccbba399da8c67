"""Tests for the session-object serving API.

:class:`SessionRequest` objects and one :class:`ServeOptions` are the
whole request surface: anything else is refused. Identity normalization
on :meth:`ServerReport.outcomes` is what fleet rollups count with.
"""

import warnings

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine.fleet import Fleet
from repro.engine.player import AdaptationPolicy, RetryPolicy
from repro.engine.recorder import Recorder
from repro.engine.vod import (
    PlaybackReport,
    ServeOptions,
    ServerReport,
    Session,
    SessionRequest,
    VodServer,
    normalize_requests,
)
from repro.errors import EngineError
from repro.faults.plan import FaultPlan
from repro.media import frames
from repro.media.objects import video_object


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


@pytest.fixture
def server(movie):
    server = VodServer(bandwidth=2_000_000, prefetch_depth=8)
    server.publish("feature", movie)
    return server


@pytest.fixture
def fleet(movie):
    fleet = Fleet(bandwidth=2_000_000, shards=2)
    fleet.publish("feature", movie)
    return fleet


class TestSessionRequest:
    def test_kw_only(self):
        with pytest.raises(TypeError):
            SessionRequest("alice", "feature")

    def test_defaults(self):
        request = SessionRequest(client="alice", title="feature")
        assert request.arrival_time == Rational(0)
        assert request.retry_policy is None
        assert request.adaptation is None
        assert request.key == ("alice", "feature")

    def test_negative_arrival_rejected(self):
        with pytest.raises(EngineError, match="arrival"):
            SessionRequest(client="a", title="t", arrival_time=-1)

    def test_replace(self):
        request = SessionRequest(client="alice", title="feature")
        later = request.replace(arrival_time=Rational(3, 2))
        assert later.arrival_time == Rational(3, 2)
        assert later.client == "alice"
        assert request.arrival_time == Rational(0)


class TestServeOptions:
    def test_kw_only_and_defaults(self):
        with pytest.raises(TypeError):
            ServeOptions(False)
        opts = ServeOptions()
        assert opts.enforce_admission is True
        assert opts.granularity == "auto"

    def test_bad_granularity(self):
        with pytest.raises(EngineError, match="granularity"):
            ServeOptions(granularity="frame")

    def test_session_granularity_rejected(self):
        # Whole-session events come from "auto" when every arrival is
        # at time zero; there is no way to ask for them otherwise.
        with pytest.raises(EngineError, match="granularity"):
            ServeOptions(granularity="session")

    def test_replace(self):
        opts = ServeOptions(granularity="read")
        off = opts.replace(enforce_admission=False)
        assert off.granularity == "read"
        assert off.enforce_admission is False


class TestNormalization:
    def test_native_requests_pass_through_silently(self):
        native = [SessionRequest(client="a", title="feature")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reqs = normalize_requests(native)
        assert reqs == native and reqs[0] is native[0]

    def test_strings_rejected(self):
        with pytest.raises(EngineError):
            normalize_requests(["alice:feature"])


class TestServeSurface:
    def test_native_requests_emit_no_warning(self, server):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = server.serve(
                [SessionRequest(client="alice", title="feature")])
        assert report.admitted_count == 1

    def test_options_and_kwargs_conflict(self, server):
        with pytest.raises(TypeError):
            server.serve(
                [SessionRequest(client="a", title="feature")],
                ServeOptions(granularity="read"),
                enforce_admission=False,
            )

    def test_admit_mirrors_input_shape(self, server):
        native = [SessionRequest(client="a", title="feature")]
        admitted, rejected = server.admit(native)
        assert admitted == native and rejected == []

    def test_session_carries_its_request(self, server):
        request = SessionRequest(client="alice", title="feature")
        report = server.serve([request])
        assert report.admitted[0].request == request

    def test_per_request_retry_override(self, server):
        plan = FaultPlan(seed=55, page_size=512, bad_page_rate=0.2)
        strict = SessionRequest(
            client="strict", title="feature",
            retry_policy=RetryPolicy(max_retries=0,
                                     abort_skip_fraction=0.01),
        )
        lenient = SessionRequest(
            client="lenient", title="feature",
            retry_policy=RetryPolicy(abort_skip_fraction=None),
        )
        report = server.serve([strict, lenient],
                              ServeOptions(fault_plan=plan))
        by_client = {s.client: s for s in report.admitted}
        # The strict session aborts and is re-served degraded; the
        # lenient one tolerates every skip in-band.
        assert by_client["strict"].degraded
        assert not by_client["lenient"].degraded

    def test_per_request_adaptation_override(self, server):
        plan = FaultPlan(seed=55, page_size=512, degraded_fraction=0.5,
                        degradation_span=4096)
        adaptive = SessionRequest(
            client="adaptive", title="feature",
            adaptation=AdaptationPolicy(levels=3),
        )
        fixed = SessionRequest(client="fixed", title="feature")
        report = server.serve([adaptive, fixed],
                              ServeOptions(fault_plan=plan))
        by_client = {s.client: s for s in report.admitted}
        assert by_client["adaptive"].report.delivered_quality <= \
            by_client["fixed"].report.delivered_quality


class TestRequestValidation:
    """Servers and fleets take :class:`SessionRequest` items and one
    :class:`ServeOptions`, nothing else."""

    @pytest.mark.parametrize("item", [("alice", "feature"),
                                      "alice:feature", 42],
                             ids=["tuple", "string", "int"])
    @pytest.mark.parametrize("surface", ["server", "fleet"])
    @pytest.mark.parametrize("verb", ["serve", "admit"])
    def test_non_request_items_rejected(self, request, verb, surface, item):
        target = request.getfixturevalue(surface)
        batch = [SessionRequest(client="a", title="feature"), item]
        with pytest.raises(EngineError, match="SessionRequest"):
            getattr(target, verb)(batch)

    @pytest.mark.parametrize("surface", ["server", "fleet"])
    def test_bare_keywords_rejected(self, request, surface):
        target = request.getfixturevalue(surface)
        with pytest.raises(TypeError):
            target.serve([SessionRequest(client="a", title="feature")],
                          enforce_admission=False)


class TestReadGranularity:
    def test_staggered_arrivals_auto_select_read(self, server):
        reqs = [
            SessionRequest(client="early", title="feature"),
            SessionRequest(client="late", title="feature",
                           arrival_time=Rational(1, 2)),
        ]
        report = server.serve(reqs)
        assert report.admitted_count == 2
        stats = server.last_loop_stats
        # One event per element read, not one event per session.
        assert stats["events_processed"] > 2 * 2
        assert stats["pending"] == 0

    def test_explicit_read_granularity(self, server):
        report = server.serve(
            [SessionRequest(client="a", title="feature"),
             SessionRequest(client="b", title="feature")],
            ServeOptions(granularity="read"),
        )
        assert report.admitted_count == 2
        assert all(s.report.element_count == 25 for s in report.admitted)

    def test_read_granularity_faulted_fallback(self, server):
        plan = FaultPlan(seed=55, page_size=512, bad_page_rate=0.2)
        report = server.serve(
            [SessionRequest(client=f"c{i}", title="feature")
             for i in range(3)],
            ServeOptions(
                fault_plan=plan, granularity="read",
                retry_policy=RetryPolicy(max_retries=0,
                                         abort_skip_fraction=0.01),
            ),
        )
        assert report.admitted_count + len(report.failed) == 3
        assert report.degraded_sessions() >= 1


def _session(client, title, *, degraded=False, resumed=False):
    report = PlaybackReport(
        element_count=1, duration=Rational(1), required_rate=Rational(1),
        startup_delay=Rational(0), underruns=0, underrun_fraction=0.0,
        max_lateness=Rational(0), jitter=Rational(0), prefetch_depth=1,
        seeks=0,
    )
    return Session(client=client, title=title, report=report,
                   degraded=degraded, resumed=resumed)


def _report(admitted, failed=()):
    return ServerReport(admitted=admitted, rejected=[], bandwidth=1,
                        per_client_bandwidth=1, failed=list(failed))


class TestOutcomes:
    def test_each_identity_counted_once_worst_wins(self):
        # A session resumed after a crash and then degraded appears as
        # one identity with the worst outcome, not two sessions.
        report = _report([
            _session("alice", "feature", resumed=True),
            _session("alice", "feature", degraded=True),
            _session("bob", "feature"),
        ])
        outcomes = report.outcomes()
        assert outcomes == {
            ("alice", "feature"): "degraded",
            ("bob", "feature"): "clean",
        }

    def test_failed_outranks_degraded(self):
        report = _report(
            [_session("alice", "feature", degraded=True)],
            failed=[("alice", "feature", "gave out")],
        )
        assert report.outcomes() == {("alice", "feature"): "failed"}
