"""OBS — per-subsystem counters for the Figure-5 pipeline workload.

Runs the full E5 stack (capture -> record -> derive -> compose -> play)
with an observability sink attached end to end, and renders the
collected per-subsystem counters as a table. Deterministic: re-running
the benchmark reproduces the same counts byte for byte.
"""

from test_bench_figure5_pipeline import build_stack

from repro.blob import BlobStore
from repro.engine import CostModel, Player
from repro.obs import Observability, metrics_rows


def run_instrumented_pipeline():
    obs = Observability()
    blob, interpretation, editor, final, movie = build_stack()
    interpretation.instrument(obs)
    final.instrument(obs)

    # Touch every instrumented layer: archive the recorded tape into a
    # paged blob store, materialize both sequences, expand the edited
    # picture, then play the composition.
    store = BlobStore(obs=obs)
    store.create("tape1-archive").append(blob.read_all())
    for name in interpretation.names():
        interpretation.materialize(name)
    final.expand()
    player = Player(CostModel(bandwidth=40_000_000), prefetch_depth=4,
                    obs=obs)
    play = player.play(movie)
    return obs, play


def test_obs_pipeline_counters(report, benchmark):
    obs, play = benchmark.pedantic(run_instrumented_pipeline,
                                   iterations=1, rounds=1)
    report.table(
        "obs-pipeline",
        ("metric", "type", "labels", "value"),
        metrics_rows(obs),
        title="OBS — per-subsystem counters, Figure-5 pipeline workload",
    )

    snapshot = obs.metrics.snapshot()
    assert "core.interpretation.materializations" in snapshot
    assert "core.derivation.expansions" in snapshot
    assert "engine.play.runs" in snapshot
    assert play.metrics is not None
    assert play.underruns == 0


def test_obs_pipeline_is_deterministic():
    first, _ = run_instrumented_pipeline()
    second, _ = run_instrumented_pipeline()
    assert first.snapshot() == second.snapshot()
