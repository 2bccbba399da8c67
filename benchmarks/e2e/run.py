"""End-to-end benchmark runner.

One workload per process::

    python3 benchmarks/e2e/run.py --workload serve-live --seed 1 \\
        --seconds 24 --trace 0

With ``--trace 0`` it sets the workload up three times (reporting the
median as ``setup_s``), then runs as many whole rounds as fit in
``--seconds`` — and at least the workload's fixed prefix of rounds,
whose outputs are digested — and prints every end-to-end metric of
``BENCHMARK.json``. Host times are read at the reference speed of
``reference.py``, from passes of its task sampled while the run
measures.
With ``--trace 1`` it sets up twice and runs that fixed prefix on both
states, each round first untraced on one and then, with the per-layer
shims of ``layers.py`` installed, on the other, and prints every
per-layer metric. The two passes must produce the same digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run's details (digest, simulated-time readings, errors).
A failed correctness check exits with status 1.

``--all --runs K --out DIR`` runs every workload K times untraced,
alternating the order, then once traced, each in its own process, and
writes one JSON file per run into DIR for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from reference import SpeedSampler, sampling_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Environment the runner re-executes itself under. String hashing is
#: salted per process, which reorders sets and dicts of strings and with
#: them the program's allocations: a faulted serve in a first version
#: of this benchmark peaked at 386 MB in most runs and at 418 MB in
#: others, so the salt is fixed.
#: NumPy's BLAS would spread the codec's matrix products over every
#: core; the benchmark measures one single-threaded process.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Linux personality flag that turns address-space layout randomization
#: off for the programs a process executes. With it on, each process
#: placed the heap and the libraries anew, and ``catalog-query`` ran at
#: one of two speeds 13% apart, whichever the layout gave it.
ADDR_NO_RANDOMIZE = 0x0040000
#: Host time of timed calls that ends a block of rounds. A block's host
#: times are read at the reference speed of the passes sampled while it
#: ran, about ten a block or more.
BLOCK_NS = 100_000_000


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def _use_checkout_source() -> None:
    """Import the program from this checkout's ``src``, never another."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, "
                 f"expected {package}")


@dataclass
class Phase:
    """Everything one pass over a workload's rounds measured."""

    wall_ns: int = 0
    rounds: int = 0
    units: int = 0
    failed: int = 0
    call_ns: list[int] = field(default_factory=list)
    #: (calls, timed-call ns, units) done so far, after each round.
    marks: list[tuple[int, int, int]] = field(default_factory=list)
    #: Ends of blocks: the instant, and the number of rounds done.
    cut_ns: list[int] = field(default_factory=list)
    cuts: list[int] = field(default_factory=list)
    sessions: list = field(default_factory=list)
    peak_sessions: int = 0
    digest: str = ""
    #: Peak resident memory of the process, in MB, once the digested
    #: prefix of rounds has run.
    prefix_peak_mb: float = 0.0
    #: Median host time of a reference pass while the run measured, in
    #: µs; how loaded the machine was (untraced runs only).
    reference_us: float | None = None
    errors: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._digest = hashlib.sha256()

    def run(self, workload, state, index: int, digested: bool) -> bool:
        """Run round ``index``; False if it raised."""
        started = perf_counter_ns()
        try:
            result = workload.run_round(state, index)
        except Exception:  # the boundary: report it, stop timing
            self.errors.append(f"round {index} raised:\n"
                               + traceback.format_exc(limit=8))
            self.units += 1
            self.failed += 1
            return False
        finally:
            self.wall_ns += perf_counter_ns() - started
        self.rounds += 1
        self.call_ns.extend(result.call_ns)
        self.units += result.units
        self.failed += result.failed
        self.errors.extend(f"round {index}: {e}" for e in result.errors)
        if digested:
            self._digest.update(result.digest)
            self.digest = self._digest.hexdigest()
            self.sessions.extend(result.sessions)
            self.peak_sessions = max(self.peak_sessions,
                                     result.peak_sessions)
        timed = (self.marks[-1][1] if self.marks else 0) + sum(result.call_ns)
        self.marks.append((len(self.call_ns), timed, self.units))
        return True

    def cut(self) -> None:
        """End the block of rounds since the last cut."""
        self.cut_ns.append(perf_counter_ns())
        self.cuts.append(len(self.marks))

    def since_cut_ns(self) -> int:
        """Host time of the timed calls since the last cut."""
        if not self.marks:
            return 0
        start = self.marks[self.cuts[-1] - 1][1] if self.cuts[-1] else 0
        return self.marks[-1][1] - start


def run_rounds(workload, state, seconds: float, prefix: int) -> Phase:
    """Run the first ``prefix`` rounds, then more while a round as long
    as the last one would still end within ``seconds``.

    A run thus measures for ``seconds`` as nearly as whole rounds allow,
    never much longer. Only the first ``prefix`` rounds feed the digest,
    the simulated readings and the peak memory, so those do not depend
    on how many rounds a run completes. The collector stays on
    throughout, after one full collection of what set-up left behind.
    A block of rounds ends once its timed calls reach ``BLOCK_NS``, and
    after the last round.
    """
    phase = Phase()
    gc.collect()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    phase.cut()
    index = last_ns = 0
    while index < prefix or perf_counter_ns() + last_ns <= deadline:
        started = perf_counter_ns()
        ran = phase.run(workload, state, index, index < prefix)
        if index + 1 == prefix or (not ran and not phase.prefix_peak_mb):
            phase.prefix_peak_mb = peak_rss_mb()
        if not ran:
            break
        if phase.since_cut_ns() >= BLOCK_NS:
            phase.cut()
        last_ns = perf_counter_ns() - started
        index += 1
    if phase.cuts[-1] != len(phase.marks):
        phase.cut()
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: always one of the measured values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def at_reference_speed(phase: Phase,
                       sampler: SpeedSampler) -> tuple[float, list[float]]:
    """Units per second of timed calls over the whole run, and every
    timed call in ms, read at the reference speed.

    Each block's host times are scaled by the reference passes sampled
    while its rounds ran.
    """
    units = timed = 0.0
    calls_ms: list[float] = []
    start = (0, 0, 0)
    for n in range(1, len(phase.cuts)):
        end = phase.marks[phase.cuts[n] - 1]
        factor = sampler.factor(phase.cut_ns[n - 1], phase.cut_ns[n])
        units += end[2] - start[2]
        timed += (end[1] - start[1]) * factor
        calls_ms.extend(ns * factor / 1e6
                        for ns in phase.call_ns[start[0]:end[0]])
        start = end
    return (units / timed * 1e9 if timed else 0.0), calls_ms


def simulated_readings(phase: Phase) -> dict[str, float]:
    """Exact-model outputs of the digested rounds (serve workloads)."""
    sessions = phase.sessions
    if not sessions:
        return {}
    return {
        "sim_peak_sessions": phase.peak_sessions,
        "sim_deadline_miss_ratio":
            sum(s.late_reads for s in sessions)
            / max(1, sum(s.reads for s in sessions)),
        "sim_startup_s_p95": percentile([s.startup_s for s in sessions], 95),
        "sim_degraded_ratio":
            sum(s.degraded for s in sessions) / len(sessions),
    }


def measure(workload, seconds: float) -> tuple[dict, Phase]:
    """Set up ``SETUP_REPEATS`` times, then run rounds on the last
    state, with the reference sampler on throughout."""
    setups = []
    state = None
    with SpeedSampler() as sampler:
        try:
            for _ in range(SETUP_REPEATS):
                if state is not None:
                    state.close()
                    state = None
                    gc.collect()
                sampled = sampling_ns()
                start = perf_counter_ns()
                state = workload.setup()
                end = perf_counter_ns()
                setups.append((end - start - (sampling_ns() - sampled))
                              * sampler.factor(start, end) / 1e9)
            phase = run_rounds(workload, state, seconds,
                               workload.trace_rounds)
            phase.errors.extend(workload.final_check(state))
        finally:
            if state is not None:
                state.close()
    throughput, calls_ms = at_reference_speed(phase, sampler)
    phase.reference_us = statistics.median(sampler.passes) / 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": phase.prefix_peak_mb,
        "throughput": throughput,
        "call_ms_p50": statistics.median(calls_ms) if calls_ms else 0.0,
    }
    return metrics, phase


def measure_traced(workload) -> tuple[dict, Phase]:
    """The prefix of rounds twice, from two set-ups: each round runs
    untraced on one state, then traced on the other, so both passes see
    the same warm-up and the same load from outside the benchmark."""
    from layers import LayerTracer

    states = []
    tracer = LayerTracer()
    base, traced = Phase(), Phase()
    try:
        states.append(workload.setup())
        states.append(workload.setup())
        gc.collect()
        for index in range(workload.trace_rounds):
            if not base.run(workload, states[0], index, True):
                break
            with tracer:
                if not traced.run(workload, states[1], index, True):
                    break
        base.errors.extend(workload.final_check(states[0]))
        traced.errors.extend(workload.final_check(states[1]))
        extras = workload.extras(states[1])
    finally:
        for state in states:
            state.close()
    traced.errors.extend(f"untraced pass: {e}" for e in base.errors)
    if traced.digest != base.digest:
        traced.errors.append("traced and untraced passes digest differently")
    sessions = traced.units if workload.unit == "sessions" else 0
    metrics = tracer.metrics(traced.wall_ns, sessions)
    metrics["query.index.size_mb"] = extras.get("query.index.size_mb", 0.0)
    metrics["trace.wall_s"] = traced.wall_ns / 1e9
    metrics["trace.overhead_ratio"] = traced.wall_ns / base.wall_ns
    return metrics, traced


def run_one(args) -> int:
    _use_checkout_source()
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if args.trace:
        metrics, phase = measure_traced(workload)
        declared = spec["per_layer"]
    else:
        metrics, phase = measure(workload, args.seconds)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(
            f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
            f"match {SPEC.name}")
    correct = not phase.errors
    print(json.dumps({"details": {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "unit": workload.unit,
        "rounds": phase.rounds,
        "digested_rounds": workload.trace_rounds,
        "calls": len(phase.call_ns),
        "wall_s": phase.wall_ns / 1e9,
        "reference_us": phase.reference_us,
        "digest": phase.digest,
        "simulated": simulated_readings(phase),
        "errors": phase.errors,
    }}))
    print(json.dumps({
        "correct": correct,
        "attempted": phase.units,
        "failed": phase.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process: K untraced runs, then one traced."""
    from workloads import WORKLOADS

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS)
    plan = [(name, 0, run) for run in range(args.runs)
            for name in (names if run % 2 == 0 else names[::-1])]
    plan += [(name, 1, 0) for name in names]
    status = 0
    for name, trace, run in plan:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
        if args.smoke:
            command.append("--smoke")
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        record = {"workload": name, "seed": args.seed, "trace": trace,
                  "run": run, "returncode": proc.returncode,
                  "stderr": proc.stderr[-4000:]}
        if len(lines) >= 2:
            record["details"] = json.loads(lines[-2])["details"]
            record["result"] = json.loads(lines[-1])
        path = out / f"{name}.trace{trace}.run{run}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True))
        print(f"{name} trace={trace} run={run} exit={proc.returncode} "
              f"-> {path}", flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload for a quick test run")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in subprocesses")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", help="directory for --all results")
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        parser.error(f"{SPEC} not found")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.all:
        if not args.out:
            parser.error("--all needs --out DIR")
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run_one(args)


def _fix_layout() -> bool:
    """Turn address-space layout randomization off for the next exec.

    True if this changed the process; False if it was off already or
    the platform does not let a process turn it off.
    """
    try:
        import ctypes

        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    current = personality(0xFFFFFFFF)
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return False
    personality(current | ADDR_NO_RANDOMIZE)
    return bool(personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE)


if __name__ == "__main__":
    if _fix_layout() or any(os.environ.get(k) != v
                            for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
