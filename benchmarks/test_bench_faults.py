"""Fault sweep — graceful degradation under storage misbehaviour.

Sweeps fault severity against playback outcomes: a clean stack should
degrade *gradually* (retries, then glitches, then reduced delivered
quality) rather than fall off a cliff. The sweep exercises the claim
behind scalable streams (§4.1): when bandwidth degrades, fidelity is
traded before feasibility.
"""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine.player import AdaptationPolicy, CostModel, Player, RetryPolicy
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.faults import FaultPlan
from repro.media import frames
from repro.media.objects import video_object

PAGE = 512


@pytest.fixture(scope="module")
def movie():
    video = video_object(frames.scene(64, 48, 50, "orbit"), "feature")
    return Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )


def make_plan(severity: float) -> FaultPlan:
    """One knob scaling every fault class together."""
    return FaultPlan(
        seed=20260806, page_size=PAGE,
        transient_rate=0.4 * severity,
        bad_page_rate=0.1 * severity,
        corruption_rate=0.2 * severity,
        degraded_fraction=severity,
        degradation_span=8,
        degraded_bandwidth_factor=Rational(1, 3),
    )


def faulted_player(severity: float) -> Player:
    return Player(
        CostModel(bandwidth=200_000),
        prefetch_depth=8,
        fault_plan=make_plan(severity) if severity else None,
        retry_policy=RetryPolicy(max_retries=3, backoff=Rational(1, 250)),
        adaptation=AdaptationPolicy(levels=3),
    )


def test_fault_severity_sweep(report, benchmark, movie):
    rows = []
    reports = {}
    for severity in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        playback = faulted_player(severity).play(movie)
        assert playback == faulted_player(severity).play(movie)  # same seed
        reports[severity] = playback
        rows.append((
            f"{severity:.2f}",
            playback.retries,
            playback.skipped_elements,
            playback.glitches,
            playback.underruns,
            f"{float(playback.delivered_quality):.0%}",
            f"{float(playback.max_lateness) * 1000:.1f} ms",
        ))
    report.table(
        "faults",
        ("severity", "retries", "skipped", "glitches", "underruns",
         "delivered quality", "max lateness"),
        rows,
        title="fault rate -> degradation (seeded plan, 50-element title, "
              "3-layer adaptation)",
    )

    # Shape claims: zero severity is the clean happy path; rising
    # severity costs retries and quality but playback always completes.
    clean = reports[0.0]
    assert clean.retries == 0 and clean.skipped_elements == 0
    assert clean.delivered_quality == 1
    assert reports[1.0].retries > 0
    assert reports[1.0].delivered_quality < 1
    assert all(r.element_count + r.skipped_elements == clean.element_count
               for r in reports.values())

    benchmark(lambda: faulted_player(0.5).play(movie))


def test_vod_failover_sweep(report, movie):
    server = VodServer(bandwidth=800_000, prefetch_depth=8)
    server.publish("feature", movie)
    requests = [SessionRequest(client=f"c{i}", title="feature")
                for i in range(4)]
    rows = []
    for severity in (0.0, 0.25, 0.5, 1.0):
        outcome = server.serve(requests, ServeOptions(
            fault_plan=make_plan(severity) if severity else None,
            retry_policy=RetryPolicy(max_retries=3,
                                     abort_skip_fraction=0.25),
            adaptation=AdaptationPolicy(levels=3),
        ))
        rows.append((
            f"{severity:.2f}",
            outcome.clean_sessions(),
            outcome.underrun_sessions(),
            outcome.degraded_sessions(),
            outcome.failed_sessions(),
            f"{outcome.mean_delivered_quality():.0%}",
        ))
        # Failover accounting: every admitted request is served or
        # explicitly failed, never silently dropped.
        assert outcome.admitted_count + outcome.failed_sessions() == 4
    report.table(
        "faults_vod",
        ("severity", "clean", "underrun", "degraded", "failed",
         "mean delivered quality"),
        rows,
        title="VOD failover under the same fault sweep (4 clients)",
    )
