"""Compare two sets of ``run.py --all`` results (an A/A or A/B check).

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

For each workload it prints every end-to-end metric's median and
quartiles in both sets and flags a pair whose medians differ by more
than the metric's ``BENCHMARK.json`` bound. It also flags what must not
differ at all between runs of one seed: the simulated-time readings,
the digest of the program's outputs (failed sessions included), and the
per-layer counts of the traced runs; and any run that failed a check.
Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(directory: str) -> list[dict]:
    runs = [json.loads(path.read_text())
            for path in sorted(Path(directory).glob("*.json"))]
    if not runs:
        raise SystemExit(f"error: no run files in {directory}")
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def exact_metric(name: str, unit: str) -> bool:
    """Per-layer readings that a fixed seed and round count determine."""
    return unit in ("count", "MB") or name.endswith("hit_ratio")


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> list[str]:
    flags: list[str] = []
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = [[r for r in runs if r["workload"] == workload]
                for runs in (a_runs, b_runs)]
        print(f"\n{workload}")
        for side, runs in zip("AB", sets):
            for run in runs:
                result = run.get("result")
                if run["returncode"] != 0 or not result \
                        or not result["correct"]:
                    flags.append(f"{workload}: a run in {side} failed "
                                 f"(trace={run['trace']}, run={run['run']})")
        untraced = [[r for r in runs if r["trace"] == 0 and r.get("result")]
                    for runs in sets]
        if all(untraced):
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                a, b = (spread([r["result"]["metrics"][name]["value"]
                                for r in runs]) for runs in untraced)
                change = (b[1] - a[1]) / a[1]
                flagged = abs(change) > bound
                print(f"  {name:<14} A {a[1]:12.4f} [{a[0]:.4f}, {a[2]:.4f}]"
                      f"  B {b[1]:12.4f} [{b[0]:.4f}, {b[2]:.4f}]"
                      f"  {change:+7.2%} (bound {bound:.0%})"
                      + ("  FLAG" if flagged else ""))
                if flagged:
                    flags.append(f"{workload}: {name} medians differ by "
                                 f"{change:+.2%}, bound {bound:.0%}")
        runs = [r for side in sets for r in side if r.get("details")]
        for key in ("digest", "simulated"):
            seen = {json.dumps(r["details"][key], sort_keys=True)
                    for r in runs}
            if len(seen) > 1:
                flags.append(f"{workload}: {key} differs between runs")
        traced = [[r for r in side if r["trace"] == 1 and r.get("result")]
                  for side in sets]
        if all(traced):
            for name, unit in units.items():
                values = [r["result"]["metrics"][name]["value"]
                          for side in traced for r in side]
                if exact_metric(name, unit) and len(set(values)) > 1:
                    flags.append(f"{workload}: {name} differs: {values}")
                if name == "trace.unattributed_share" and max(values) >= 0.10:
                    flags.append(f"{workload}: {name} {max(values):.3f}")
    return flags


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads(SPEC.read_text())
    flags = compare(load(argv[0]), load(argv[1]), spec)
    print()
    for flag in flags:
        print(f"FLAG {flag}")
    print(f"{len(flags)} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
