"""Replay-memo equivalence: memoized serves match real ones.

An unobserved, unfaulted uniform-arrival batch plays each distinct title
once and copies the report to every other session of that title. The
copies must equal what real runs compute; an observed batch must run
every session for real. The serve exports themselves are pinned by the
goldens in ``test_serve_golden.py``.
"""

import dataclasses

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.recorder import Recorder
from repro.engine.vod import SessionRequest, VodServer
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


def build_server(movie, short, obs=None):
    server = VodServer(bandwidth=2_000_000, prefetch_depth=8, obs=obs)
    server.publish("feature", movie)
    server.publish("short", short)
    return server


def requests(n, title="feature"):
    return [SessionRequest(client=f"client-{i}", title=title)
            for i in range(n)]


class TestReplayMemo:
    def test_memo_off_when_observed(self, movie, short):
        # With a live sink every session must run for real: per-session
        # spans are part of the export contract.
        obs = Observability()
        server = build_server(movie, short, obs=obs)
        server.serve(requests(5))
        assert len(obs.tracer.named("vod.session")) == 5

    def test_memo_results_match_real_runs(self, movie, short):
        observed = build_server(movie, short, obs=Observability())
        memoized = build_server(movie, short)
        reqs = requests(6)
        report_a = observed.serve(reqs)
        report_b = memoized.serve(reqs)
        # PlaybackReport carries obs-derived extras (metrics snapshot,
        # SLO verdicts) that a null sink legitimately omits; the
        # simulation outcome itself must match exactly.
        def projection(report):
            return [dataclasses.replace(s.report, metrics=None, slo=[])
                    for s in report.admitted]
        assert projection(report_a) == projection(report_b)
        assert report_a.per_client_bandwidth == report_b.per_client_bandwidth
