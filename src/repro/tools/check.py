"""The repo's static verification gate.

Usage::

    python -m repro.tools.check --all

Runs the static verification layer end to end and exits non-zero on
any ERROR-level finding, so CI can gate on it:

* ``--graph`` checks exemplar media graphs (the Figure 2 capture, the
  Figure 4 production and the §1.2 multilingual movie, rebuilt at
  reduced scale) through the media-graph rules (the ``MG`` range —
  ``--list-rules`` prints the live table; hardcoding the span here
  went stale once already);
* ``--lint`` runs the determinism/taxonomy linter (the ``LN`` range)
  over the library's own sources;
* ``--dataflow`` runs the CFG-based dataflow engine (the ``DF``
  range: typestate protocols for pins, WAL transactions and resource
  handles; wall-clock/float taint into exact-rational arithmetic;
  set-iteration order hazards; swallowed exceptions and absorbed
  simulated crashes) over the library's own sources. Findings listed
  in the committed baseline (``analysis/dataflow_baseline.json``) are
  reported but do not gate; only regressions fail the stage.
  ``--sarif PATH`` additionally writes the dataflow report as SARIF
  2.1.0; ``--update-baseline`` regenerates the baseline from the
  current findings instead of gating; ``--dataflow-root PATH`` points
  the engine at another tree (the baseline then does not apply);
* ``--crash`` runs a reduced crash matrix (the ``small`` scenario set
  over the simulated medium): every injected crash point is exercised
  and recovery invariants are asserted — a fast smoke of the full
  matrix the ``crash``-marked tests run;
* ``--fleet`` runs the fleet failover smoke: a three-shard fleet loses
  its owning shard mid-batch to an injected crash; the kill must be
  absorbed by checkpoint-backed failover with every displaced session
  accounted exactly once and the deadline-miss SLO still green;
* ``--query`` runs the dual-backend agreement smoke: seeded randomized
  catalogs are queried through both the relational temporal index and
  the linear oracle, and every result set (selections, temporal
  predicates, composition axes, lineage — including after
  ``set_attribute`` mutations) must be byte-identical;
* ``--telemetry`` runs the telemetry pipeline smoke: an overloaded
  single-shard serve with the clock-driven scraper attached must see a
  burn-rate alert fire *and* resolve before the serve returns, and two
  same-seed runs must produce byte-identical telemetry-store dumps and
  alert timelines;
* ``--style`` and ``--types`` invoke ``ruff`` and ``mypy`` when they
  are installed, and are skipped (without failing) when they are not —
  the in-tree engines above carry the gate either way.

``--all`` selects every stage and is the default when no stage flag is
given. ``--list-rules`` prints the rule table; ``--json`` switches the
graph/lint output to the deterministic JSON reporters; ``--ignore
RULE`` (repeatable) suppresses a rule id in both engines.

``--bench-compare BASELINE.json`` (not part of ``--all``) compares the
machine-readable benchmark metrics under ``results/`` against a saved
baseline and fails on any >25% throughput regression.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

from repro.analysis import (
    DiagnosticReport,
    GraphChecker,
    lint_repo,
    rule_registry,
)
from repro.bench.reporting import table_text

#: Bandwidth (bytes/second) the exemplar graphs are priced against —
#: generous enough that the reduced-scale examples are feasible, so a
#: clean tree checks clean.
EXEMPLAR_BANDWIDTH = 40_000_000


def exemplar_graphs() -> list[tuple[str, object]]:
    """The worked examples the graph stage verifies, at reduced scale.

    Each is a real build of a paper figure — derived objects stay
    unexpanded, which is exactly what the static checker wants.
    """
    from repro.bench.workloads import (
        figure2_capture,
        figure4_production,
        multilingual_movie,
    )

    capture = figure2_capture(width=64, height=48, seconds=0.4, fps=10)
    production = figure4_production(width=48, height=36, fps=10, scale=0.05)
    _, movie = multilingual_movie(seconds=0.5, fps=10, width=48, height=36)
    return [
        ("figure2", capture.interpretation),
        ("figure4", production.multimedia),
        ("multilingual", movie),
    ]


def run_graph(ignore: tuple[str, ...] = ()) -> DiagnosticReport:
    """Check every exemplar graph; one merged report."""
    from repro.engine.player import CostModel

    checker = GraphChecker(
        cost_model=CostModel(bandwidth=EXEMPLAR_BANDWIDTH), ignore=ignore,
    )
    merged = DiagnosticReport(subject="graph:exemplars")
    for _, target in exemplar_graphs():
        merged.merge(checker.check(target))
    return merged


def run_crash() -> tuple[bool, str]:
    """The reduced crash matrix; ``(passed, rendered summary)``."""
    from repro.durability import CrashMatrix, default_scenarios

    lines = []
    passed = True
    for scenario in default_scenarios(small=True):
        report = CrashMatrix(scenario).run()
        lines.append(report.summary())
        if not report.passed:
            passed = False
            for outcome in report.failures:
                lines.append(f"  FAIL {outcome.site}: {outcome.detail}")
    return passed, "\n".join(lines)


def run_fleet() -> tuple[bool, str]:
    """The fleet failover smoke; ``(passed, rendered summary)``.

    Three shards serve a small synthetic title; the owning shard is
    killed mid-batch by an injected crash. The smoke passes when the
    failover is absorbed (no crash propagates), every displaced session
    is accounted exactly once, and the deadline-miss SLO stays green.
    """
    from repro.blob.blob import MemoryBlob
    from repro.codecs.jpeg_like import JpegLikeCodec
    from repro.engine.fleet import Fleet
    from repro.engine.recorder import Recorder
    from repro.engine.vod import SessionRequest
    from repro.faults.crash import CrashInjector, CrashSite
    from repro.faults.disk import SimulatedMedium
    from repro.media import frames
    from repro.media.objects import video_object
    from repro.obs import Observability

    video = video_object(frames.scene(48, 36, 20, "orbit"), "feature")
    movie = Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )

    def build(**kwargs) -> Fleet:
        fleet = Fleet(bandwidth=2_000_000, shards=3, **kwargs)
        fleet.publish("feature", movie)
        return fleet

    owner = build().route("feature")
    clients = 5
    fleet = build(
        obs=Observability(),
        checkpoint_fs=SimulatedMedium(),
        crash={owner: CrashInjector(CrashSite("vod.serve.session", 2))},
    )
    report = fleet.serve([
        SessionRequest(client=f"client-{i}", title="feature")
        for i in range(clients)
    ])
    health = fleet.health()

    checks = [
        ("shard marked dead", owner in fleet.dead_shards),
        ("exactly-once accounting",
         report.recovered + report.admitted_count
         + len(report.failed) == clients),
        ("no failed sessions", not report.failed),
        ("deadline-miss SLO green", any(
            v.slo == "deadline-miss-rate" and v.ok for v in health.slo
        )),
    ]
    passed = all(ok for _, ok in checks)
    rows = [(name, "ok" if ok else "FAIL") for name, ok in checks]
    rows.append(("dead shard", owner))
    rows.append(("recovered / resumed / failed",
                 f"{report.recovered} / {report.admitted_count} / "
                 f"{len(report.failed)}"))
    rows.append(("fleet status", health.status))
    return passed, table_text(
        ("check", "result"), rows,
        title="fleet failover smoke (3 shards, mid-serve shard kill)",
    )


def run_query(seeds: tuple[int, ...] = (0, 1, 2)) -> tuple[bool, str]:
    """The dual-backend agreement smoke; ``(passed, rendered summary)``.

    Each seed builds a randomized catalog behind ``MediaDatabase(
    index=True)`` and replays every dual-backend query through both the
    indexed and linear paths; any disagreement fails the stage.
    """
    from repro.query.index import demonstrate_correctness

    rows = []
    passed = True
    for seed in seeds:
        report = demonstrate_correctness(seed=seed)
        rows.append((
            str(seed), str(report["checks"]),
            str(len(report["disagreements"])),
            "ok" if report["ok"] else "FAIL",
        ))
        if not report["ok"]:
            passed = False
    return passed, table_text(
        ("seed", "checks", "disagreements", "result"), rows,
        title="dual-backend agreement smoke (indexed vs linear oracle)",
    )


def run_telemetry() -> tuple[bool, str]:
    """The telemetry pipeline smoke; ``(passed, rendered summary)``.

    An overloaded single-shard serve (six staggered sessions against a
    bandwidth sized for two) runs with the clock-driven scraper
    attached. The smoke passes when a burn-rate alert fires *and*
    resolves before the serve returns, the firing state is visible in
    ``health()`` mid-serve, and a second same-seed run produces a
    byte-identical store dump and alert timeline.
    """
    from repro.blob.blob import MemoryBlob
    from repro.codecs.jpeg_like import JpegLikeCodec
    from repro.core.rational import Rational
    from repro.engine.recorder import Recorder
    from repro.engine.vod import ServeOptions, SessionRequest, VodServer
    from repro.media import frames
    from repro.media.objects import video_object
    from repro.obs import Observability
    from repro.obs.telemetry import Telemetry

    video = video_object(frames.scene(48, 36, 20, "orbit"), "feature")
    movie = Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )

    def run() -> tuple[Telemetry, list[str]]:
        telemetry = Telemetry()
        server = VodServer(21_000, obs=Observability(),
                           telemetry=telemetry)
        server.publish("feature", movie)
        seen_mid_serve: list[tuple[str, str, bool]] = []

        def observe(alert, at) -> None:
            health = server.health()
            seen_mid_serve.append((
                alert.state, health.status,
                bool(health.firing_alerts),
            ))

        telemetry.alerts.on_transition = observe
        server.serve(
            [SessionRequest(client=f"client-{i}", title="feature",
                            arrival_time=Rational(i, 8))
             for i in range(6)],
            ServeOptions(enforce_admission=False),
        )
        return telemetry, seen_mid_serve

    first, mid_states = run()
    second, _ = run()
    states = {row["state"] for row in first.store.alert_rows()}
    checks = [
        ("alert fired during serve",
         any(state == "firing" for state, _, _ in mid_states)),
        ("firing visible in health() mid-serve",
         any(state == "firing" and status != "ok" and visible
             for state, status, visible in mid_states)),
        ("alert resolved before serve returned", "resolved" in states),
        ("store dump byte-identical",
         first.store.dump() == second.store.dump()),
        ("alert timeline identical",
         first.store.alert_rows() == second.store.alert_rows()),
    ]
    passed = all(ok for _, ok in checks)
    rows = [(name, "ok" if ok else "FAIL") for name, ok in checks]
    rows.append(("scrapes", first.store.scrape_count))
    rows.append(("alert transitions", len(first.store.alert_rows())))
    return passed, table_text(
        ("check", "result"), rows,
        title="telemetry pipeline smoke (overloaded serve, dual run)",
    )


def run_bench_compare(baseline_path: str,
                      results_dir: str | Path | None = None
                      ) -> tuple[bool, str]:
    """Compare ``results/BENCH_*.json`` against a saved baseline.

    The baseline is either one benchmark's ``BENCH_<id>.json``
    (``{"experiment": ..., "metrics": {...}}``) or a mapping of
    experiment id to its metrics dict. A throughput metric — name
    containing ``per_second`` or ``throughput`` — fails the stage when
    the current value drops below 75% of the baseline; other metrics
    are reported but never gate.
    """
    import json

    baseline_file = Path(baseline_path)
    if not baseline_file.is_file():
        return False, f"bench-compare: no baseline at {baseline_path}"
    baseline = json.loads(baseline_file.read_text(encoding="utf-8"))
    if "experiment" in baseline and "metrics" in baseline:
        baseline = {baseline["experiment"]: baseline["metrics"]}
    if results_dir is None:
        results_dir = Path(__file__).resolve().parents[3] \
            / "benchmarks" / "results"
    results_dir = Path(results_dir)

    rows = []
    passed = True
    for experiment in sorted(baseline):
        current_file = results_dir / f"BENCH_{experiment}.json"
        if not current_file.is_file():
            rows.append((experiment, "-", "-", "-", "MISSING"))
            passed = False
            continue
        current = json.loads(
            current_file.read_text(encoding="utf-8"))["metrics"]
        for name in sorted(baseline[experiment]):
            base = baseline[experiment][name]
            now = current.get(name)
            gates = "per_second" in name or "throughput" in name
            if not isinstance(base, (int, float)) or \
                    isinstance(base, bool):
                continue
            if now is None:
                rows.append((experiment, name, f"{base:g}", "-",
                             "MISSING" if gates else "absent"))
                passed = passed and not gates
                continue
            ratio = now / base if base else float("inf")
            if gates and ratio < 0.75:
                verdict = f"FAIL ({ratio:.0%} of baseline)"
                passed = False
            elif gates:
                verdict = f"ok ({ratio:.0%})"
            else:
                verdict = "info"
            rows.append((experiment, name, f"{base:g}", f"{now:g}",
                         verdict))
    return passed, table_text(
        ("experiment", "metric", "baseline", "current", "verdict"),
        rows, title="benchmark regression gate (>25% throughput drop fails)",
    )


def run_external(tool: str, arguments: list[str]) -> tuple[str, str]:
    """Run an optional external tool; ``(status, detail)``.

    ``status`` is ``"ok"``, ``"failed"`` or ``"skipped"`` (tool not
    installed — the baked-in toolchain may not carry it, and the gate
    must not depend on it).
    """
    executable = shutil.which(tool)
    if executable is None:
        return "skipped", f"{tool} not installed"
    result = subprocess.run(
        [executable, *arguments], capture_output=True, text=True,
    )
    detail = (result.stdout + result.stderr).strip()
    if result.returncode == 0:
        return "ok", detail or f"{tool} clean"
    return "failed", detail


def run_dataflow(ignore: tuple[str, ...] = (),
                 root: str | None = None,
                 baseline: Path | None = None,
                 ) -> tuple[DiagnosticReport, int]:
    """Run the dataflow engine; ``(fresh report, grandfathered count)``.

    Over the default root (the installed ``repro`` package) the
    committed baseline applies: findings whose fingerprints it lists
    are split out and only fresh ones gate. A custom ``root`` gets no
    baseline — everything it finds is fresh.
    """
    from repro.analysis.dataflow import (
        DEFAULT_BASELINE,
        check_paths,
        check_repo,
        load_baseline,
        split_baselined,
    )

    if root is not None:
        return check_paths([Path(root)], ignore=ignore), 0
    report = check_repo(ignore=ignore)
    known = load_baseline(DEFAULT_BASELINE if baseline is None else baseline)
    return split_baselined(report, known)


def rule_ranges() -> str:
    """The live per-engine rule id spans, e.g. ``MG001-MG009``.

    Derived from the registry rather than hardcoded, so the help text
    cannot go stale when a rule is added.
    """
    spans = []
    for engine in sorted({info.engine for info in
                          (rule_registry.get(i) for i in rule_registry.ids())}):
        ids = rule_registry.ids(engine=engine)
        spans.append(ids[0] if len(ids) == 1 else f"{ids[0]}-{ids[-1]}")
    return ", ".join(spans)


def list_rules_text() -> str:
    """The registered rule table (the same source DESIGN.md renders)."""
    return table_text(
        ("rule", "engine", "severity", "title"),
        rule_registry.table(),
        title="registered analysis rules",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.check",
        description="Static verification gate: graph rules, self-lint, "
                    "dataflow protocols, and (when installed) ruff/mypy.",
        epilog=f"registered rules: {rule_ranges()} "
               "(--list-rules for the full table)",
    )
    parser.add_argument("--all", action="store_true",
                        help="run every stage (default when no stage "
                             "flag is given)")
    parser.add_argument("--graph", action="store_true",
                        help="check the exemplar media graphs")
    parser.add_argument("--lint", action="store_true",
                        help="lint the library's own sources")
    parser.add_argument("--dataflow", action="store_true",
                        help="run the CFG-based dataflow engine (DF "
                             "rules) over the library's own sources")
    parser.add_argument("--dataflow-root", metavar="PATH",
                        help="analyze this tree instead of the "
                             "installed repro package (the committed "
                             "baseline then does not apply)")
    parser.add_argument("--sarif", metavar="PATH",
                        help="also write the dataflow report as SARIF "
                             "2.1.0 to PATH")
    parser.add_argument("--update-baseline", action="store_true",
                        help="regenerate the committed dataflow "
                             "baseline from the current findings "
                             "instead of gating on them")
    parser.add_argument("--crash", action="store_true",
                        help="run the reduced crash matrix over the "
                             "simulated medium")
    parser.add_argument("--fleet", action="store_true",
                        help="run the fleet failover smoke: 3 shards, "
                             "mid-serve shard kill, SLO must stay green")
    parser.add_argument("--query", action="store_true",
                        help="run the dual-backend agreement smoke: "
                             "indexed vs linear answers must match")
    parser.add_argument("--telemetry", action="store_true",
                        help="run the telemetry pipeline smoke: alert "
                             "fires and resolves mid-serve, dual-run "
                             "store dumps byte-identical")
    parser.add_argument("--bench-compare", metavar="BASELINE.json",
                        help="compare results/BENCH_*.json against a "
                             "saved baseline; >25%% throughput "
                             "regression fails (not part of --all)")
    parser.add_argument("--style", action="store_true",
                        help="run ruff if installed (skipped otherwise)")
    parser.add_argument("--types", action="store_true",
                        help="run mypy if installed (skipped otherwise)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rule table and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit graph/lint reports as JSON")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="RULE",
                        help="suppress a rule id (repeatable)")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules_text())
        return 0

    selected = {
        stage for stage in ("graph", "lint", "dataflow", "crash", "fleet",
                            "query", "telemetry", "style", "types")
        if getattr(args, stage)
    }
    if args.all or (not selected and not args.bench_compare):
        selected = {"graph", "lint", "dataflow", "crash", "fleet", "query",
                    "telemetry", "style", "types"}
    ignore = tuple(args.ignore)

    failed = []
    for stage in ("graph", "lint"):
        if stage not in selected:
            continue
        report = run_graph(ignore) if stage == "graph" else lint_repo(ignore)
        print(report.to_json() if args.json else report.render_text())
        print()
        if not report.ok:
            failed.append(stage)

    if "dataflow" in selected:
        from repro.analysis.dataflow import (
            DEFAULT_BASELINE,
            baseline_payload,
            sarif_report,
        )
        from repro.durability.atomic import atomic_write_bytes

        if args.update_baseline:
            if args.dataflow_root is not None:
                print("dataflow: --update-baseline only applies to the "
                      "default root")
                failed.append("dataflow")
                report = None
            else:
                from repro.analysis.dataflow import check_repo

                # The baseline must carry every current finding, not
                # just the ones the previous baseline missed.
                report = check_repo(ignore=ignore)
                atomic_write_bytes(
                    str(DEFAULT_BASELINE), baseline_payload(report))
                print(f"dataflow: baseline rewritten with "
                      f"{len(report.diagnostics)} finding(s) at "
                      f"{DEFAULT_BASELINE}")
        else:
            report, grandfathered = run_dataflow(
                ignore, root=args.dataflow_root)
            print(report.to_json() if args.json else report.render_text())
            if grandfathered:
                print(f"({grandfathered} baselined finding(s) not shown; "
                      "--update-baseline regenerates)")
            if not report.ok:
                failed.append("dataflow")
        if args.sarif and report is not None:
            import json as _json

            atomic_write_bytes(args.sarif, _json.dumps(
                sarif_report(report), indent=2, sort_keys=True,
            ).encode("utf-8") + b"\n")
            print(f"dataflow: SARIF written to {args.sarif}")
        print()

    if "crash" in selected:
        crash_ok, crash_text = run_crash()
        print(crash_text)
        print()
        if not crash_ok:
            failed.append("crash")

    if "fleet" in selected:
        fleet_ok, fleet_text = run_fleet()
        print(fleet_text)
        print()
        if not fleet_ok:
            failed.append("fleet")

    if "query" in selected:
        query_ok, query_text = run_query()
        print(query_text)
        print()
        if not query_ok:
            failed.append("query")

    if "telemetry" in selected:
        telemetry_ok, telemetry_text = run_telemetry()
        print(telemetry_text)
        print()
        if not telemetry_ok:
            failed.append("telemetry")

    if args.bench_compare:
        bench_ok, bench_text = run_bench_compare(args.bench_compare)
        print(bench_text)
        print()
        if not bench_ok:
            failed.append("bench-compare")

    src_root = str(Path(__file__).resolve().parents[2])
    external = {
        "style": ("ruff", ["check", src_root]),
        "types": ("mypy", ["--ignore-missing-imports", src_root]),
    }
    for stage in ("style", "types"):
        if stage not in selected:
            continue
        tool, arguments = external[stage]
        status, detail = run_external(tool, arguments)
        print(f"{stage} ({tool}): {status}")
        if status == "failed":
            print(detail)
            failed.append(stage)
        print()

    if failed:
        print(f"check failed: {', '.join(failed)}")
        return 1
    print("check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
