"""The repo's static verification gate.

Usage::

    python -m repro.tools.check --all

Runs the static verification layer end to end and exits non-zero on
any ERROR-level finding, so CI can gate on it. Nothing here serves a
title or replays a crash: the dynamic checks (crash matrices, fleet
failover, the telemetry pipeline, the seeded whole-system simulation)
live in the test suite.

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
  simulated crashes) over the library's own sources. Every finding
  gates. ``--sarif PATH`` additionally writes the dataflow report as
  SARIF 2.1.0; ``--dataflow-root PATH`` points the engine at another
  tree;
* ``--style`` and ``--types`` invoke ``ruff`` and ``mypy`` when they
  are installed, and are skipped (without failing) when they are not —
  the in-tree engines above carry the gate either way.

``--all`` selects every stage and is the default when no stage flag is
given. ``--list-rules`` prints the rule table; ``--json`` switches the
graph/lint/dataflow output to the deterministic JSON reporters;
``--ignore RULE`` (repeatable) drops a rule id for this run. The one
committed way to accept a finding is a reasoned inline ``# repro:
suppress RULE — reason`` comment, which the lint and dataflow engines
both honour.

``--bench-compare BASELINE.json`` (not part of ``--all``) compares the
machine-readable benchmark metrics under ``results/`` against a saved
baseline and fails on any >25% throughput regression.
"""

from __future__ import annotations

import argparse
import json
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
                 root: str | None = None) -> DiagnosticReport:
    """Run the dataflow engine over the installed ``repro`` package, or
    over ``root`` when given."""
    from repro.analysis.dataflow import check_paths, check_repo

    if root is not None:
        return check_paths([Path(root)], ignore=ignore)
    return check_repo(ignore=ignore)


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
                             "installed repro package")
    parser.add_argument("--sarif", metavar="PATH",
                        help="also write the dataflow report as SARIF "
                             "2.1.0 to PATH")
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
                        help="emit graph/lint/dataflow reports as JSON")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="RULE",
                        help="drop a rule id for this run (repeatable)")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules_text())
        return 0

    stages = ("graph", "lint", "dataflow", "style", "types")
    selected = {stage for stage in stages if getattr(args, stage)}
    if args.all or (not selected and not args.bench_compare):
        selected = set(stages)
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
        report = run_dataflow(ignore, root=args.dataflow_root)
        print(report.to_json() if args.json else report.render_text())
        if not report.ok:
            failed.append("dataflow")
        if args.sarif:
            from repro.analysis.dataflow import sarif_report
            from repro.durability.atomic import atomic_write_bytes

            atomic_write_bytes(args.sarif, json.dumps(
                sarif_report(report), indent=2, sort_keys=True,
            ).encode("utf-8") + b"\n")
            print(f"dataflow: SARIF written to {args.sarif}")
        print()

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
