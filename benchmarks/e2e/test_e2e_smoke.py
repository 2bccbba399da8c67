"""Smoke test of the end-to-end benchmark at a shrunken size.

Runs every workload once untraced and once traced through ``run.py`` and
holds its output to ``BENCHMARK.json``. Lives under ``benchmarks/``, so
the ``bench`` marker keeps it out of tier-1; run it with
``pytest benchmarks/e2e -q``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details)["details"], json.loads(result)


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_traces(workload):
    details, result = parse(run(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())

    traced_details, traced = parse(run(workload, 1))
    assert traced["correct"] and traced["failed"] == 0
    layers = traced["metrics"]
    assert {n: m["unit"] for n, m in layers.items()} == declared("per_layer")
    assert layers["trace.unattributed_share"]["value"] < 0.10
    # Same seed, same rounds: tracing must not change what the program
    # computed, even in another process.
    assert traced_details["digest"] == details["digest"]


def test_metric_and_workload_names_are_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + list(declared("end_to_end")) + list(declared("per_layer")))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for relative in SPEC["paths"]:
        shutil.copytree(ROOT / relative, tmp_path / relative,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("catalog-query", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
