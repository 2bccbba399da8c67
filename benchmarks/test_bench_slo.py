"""SLO — serving objectives, stage attribution and observability cost.

Three views of the QoS layer on the Figure-5 pipeline workload:

* SLO verdicts for a clean serve and a bandwidth-starved serve of the
  same title — the burn-rate ladder from all-OK to violated;
* the pipeline stage profile (where the simulated time went);
* the observability tax: wall-clock cost of the instrumented playback
  over the uninstrumented one, asserted under 2x (min-of-N timing).

Results land in ``benchmarks/results/slo.txt``.
"""

import time

from test_bench_figure5_pipeline import build_stack

from repro.engine import CostModel, Player
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.obs import Observability, profile_stages, worst_verdicts

#: min-of-N repetitions for the overhead measurement.
TIMING_ROUNDS = 5


def serve_feature(interpretation, bandwidth, obs):
    server = VodServer(bandwidth=bandwidth, prefetch_depth=8, obs=obs)
    server.publish("feature", interpretation)
    server.serve([SessionRequest(client=c, title="feature")
                  for c in ("c0", "c1")],
                 ServeOptions(enforce_admission=False))
    return server


def test_slo_verdicts_and_stage_profile(report):
    _, interpretation, _, _, _ = build_stack()

    rows = []
    statuses = {}
    for label, bandwidth in (("clean", 40_000_000), ("starved", 20_000)):
        obs = Observability()
        server = serve_feature(interpretation, bandwidth, obs)
        health = server.health()
        statuses[label] = health
        verdicts = worst_verdicts(
            s.report.slo for r in server._reports for s in r.admitted
        )
        for verdict in verdicts:
            rows.append((
                label, verdict.slo,
                f"{verdict.measured:.6g}", f"{verdict.threshold:g}",
                f"{verdict.burn:.2f}",
                "OK" if verdict.ok else verdict.severity.name,
            ))
        rows.append((label, "(health)", health.status,
                     health.dominant_stage or "-", "", ""))
    assert statuses["clean"].status == "ok"
    assert statuses["starved"].status == "critical"
    assert any(not v.ok for v in statuses["starved"].slo)
    report.table(
        "slo",
        ("serve", "slo", "measured", "threshold", "burn", "verdict"),
        rows,
        title="SLO — serving objectives, clean vs. starved bandwidth",
    )

    obs = Observability()
    serve_feature(interpretation, 2_000_000, obs)
    profile = profile_stages(obs)
    report.table(
        "slo",
        ("stage", "count", "total s", "p50 ms", "p99 ms", "share"),
        profile.rows(),
        title="SLO — pipeline stage attribution at 2 MB/s",
    )
    assert profile.stages
    assert profile.dominant_stage() is not None


def test_observability_overhead_under_2x(report):
    """The instrumented figure-5 playback costs < 2x the bare one."""
    _, _, _, _, movie = build_stack()

    def timed(player):
        best = float("inf")
        for _ in range(TIMING_ROUNDS):
            start = time.perf_counter()
            player.play(movie)
            best = min(best, time.perf_counter() - start)
        return best

    bare = Player(CostModel(bandwidth=40_000_000), prefetch_depth=4)
    bare_seconds = timed(bare)

    obs = Observability()
    instrumented = Player(CostModel(bandwidth=40_000_000),
                          prefetch_depth=4, obs=obs)
    instrumented_seconds = timed(instrumented)

    overhead = instrumented_seconds / bare_seconds
    report.kv(
        "slo",
        [
            ("bare playback (min of %d)" % TIMING_ROUNDS,
             f"{bare_seconds * 1000:.3f} ms"),
            ("instrumented playback", f"{instrumented_seconds * 1000:.3f} ms"),
            ("overhead", f"{overhead:.2f}x"),
        ],
        title="SLO — observability overhead, Figure-5 playback",
    )
    assert overhead < 2.0, (
        f"observability overhead {overhead:.2f}x exceeds the 2x budget"
    )
