"""E13 — event-kernel scale: a sharded fleet under 10⁵+ sessions.

The seed stepping loop pays full playback cost per session, so serving
N identical sessions is Θ(N·playback). The event kernel's whole-session
replay memo prices each *distinct* title once per shard batch and
replays the report for the rest, so wall-clock grows sub-linearly in
the session count — the property that lets one process stand in for a
fleet-scale workload. The second experiment shows the failover path at
scale: a shard killed mid-batch is absorbed with the deadline-miss SLO
still green.
"""

import gc
import time

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.fleet import Fleet
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest
from repro.faults.crash import CrashInjector, CrashSite
from repro.faults.disk import SimulatedMedium
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability

TITLES = ("feature", "short", "news", "archive")


def make_title(name, frame_count=200):
    video = video_object(frames.scene(48, 36, frame_count, "orbit"), name)
    return Recorder(MemoryBlob()).record(
        [video], encoders={name: JpegLikeCodec(quality=40).encode},
    )


@pytest.fixture(scope="module")
def catalog():
    return {name: make_title(name) for name in TITLES}


def build_fleet(catalog, **kwargs):
    fleet = Fleet(bandwidth=2_000_000, shards=4, **kwargs)
    for name, interpretation in catalog.items():
        fleet.publish(name, interpretation)
    return fleet


def batch(n):
    return [
        SessionRequest(client=f"client-{i}", title=TITLES[i % len(TITLES)])
        for i in range(n)
    ]


def test_fleet_session_scaling(report, catalog):
    sweep = (1_000, 10_000, 100_000)
    rows = []
    timings = {}
    for sessions in sweep:
        fleet = build_fleet(catalog)
        requests = batch(sessions)
        # GC pauses scale with the live-object population, not with the
        # serving work; keep them out of the timed region.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            merged = fleet.serve(requests,
                                 ServeOptions(enforce_admission=False))
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        timings[sessions] = elapsed
        assert merged.admitted_count == sessions
        assert not merged.failed
        rows.append((
            f"{sessions:,}",
            f"{elapsed:.3f}s",
            f"{sessions / elapsed:,.0f}",
            f"{elapsed / timings[sweep[0]]:.1f}x",
        ))

    # Sub-linear wall-clock growth: the replay memo prices each title's
    # real playback once per shard batch, so 100x the sessions costs
    # well under 100x the time.
    growth = timings[100_000] / timings[1_000]
    rows.append(("growth 1k→100k", f"{growth:.1f}x vs 100x linear",
                 "", ""))
    report.table(
        "fleet",
        ("concurrent sessions", "wall-clock", "sessions/sec",
         "time vs 1k"),
        rows,
        title="E13a — kernel-scheduled fleet, 4 shards, "
              "uniform arrivals (replay memo active)",
    )
    assert growth < 60, f"wall-clock grew {growth:.1f}x for 100x sessions"


def test_fleet_failover_slo(report, catalog):
    owner = build_fleet(catalog).route("feature")
    fleet = build_fleet(
        catalog,
        obs=Observability(),
        checkpoint_fs=SimulatedMedium(),
        crash={owner: CrashInjector(CrashSite("vod.serve.session", 2))},
    )
    clients = 6
    merged = fleet.serve([
        SessionRequest(client=f"client-{i}", title="feature")
        for i in range(clients)
    ])
    health = fleet.health()

    assert owner in fleet.dead_shards
    assert merged.recovered + merged.admitted_count \
        + len(merged.failed) == clients
    deadline = [v for v in health.slo if v.slo == "deadline-miss-rate"]
    assert deadline and all(v.ok for v in deadline)

    report.kv(
        "fleet",
        [
            ("shards", "4 (1 killed mid-serve)"),
            ("dead shard", owner),
            ("sessions displaced", clients),
            ("recovered from checkpoint", merged.recovered),
            ("resumed on survivor", merged.admitted_count),
            ("failed", len(merged.failed)),
            ("deadline-miss SLO",
             "green" if all(v.ok for v in deadline) else "RED"),
            ("fleet status", health.status),
        ],
        title="E13b — shard failover keeps the deadline-miss SLO green",
    )
