"""Benchmark harness plumbing.

Benchmarks regenerate the paper's tables and figures. Each benchmark
registers its rendered table with the ``report`` fixture; the collected
tables are printed in the terminal summary (so they survive pytest's
output capture) and written to ``benchmarks/results/``. Numeric
readings registered with :meth:`BenchReport.metric` are additionally
written machine-readably as ``BENCH_<experiment>.json`` next to the
text tables, which is what ``tools.check --bench-compare`` diffs
against a saved baseline.
"""

from __future__ import annotations

import json
import os

import pytest

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_collected: list[tuple[str, str]] = []
_collected_json: dict[str, dict[str, float]] = {}


class BenchReport:
    """Collects rendered tables and numeric metrics per experiment id."""

    def add(self, experiment_id: str, text: str) -> None:
        _collected.append((experiment_id, text))

    def table(self, experiment_id: str, headers, rows, title: str = "") -> None:
        from repro.bench.reporting import table_text

        caption = f"[{experiment_id}] {title}".rstrip()
        self.add(experiment_id, table_text(headers, rows, title=caption))

    def kv(self, experiment_id: str, pairs, title: str = "") -> None:
        """A two-column metric/value table from (name, value) pairs."""
        self.table(experiment_id, ("metric", "value"),
                   [(name, str(value)) for name, value in pairs],
                   title=title)

    def metric(self, experiment_id: str, name: str, value) -> None:
        """Register one machine-readable reading for the experiment.

        Lands in ``results/BENCH_<experiment_id>.json``; name metrics
        containing ``per_second``/``throughput`` gate the
        ``--bench-compare`` regression check. A string (a commit, say)
        is kept as it is and never gates.
        """
        _collected_json.setdefault(experiment_id, {})[name] = (
            value if isinstance(value, str) else float(value))


@pytest.fixture
def report() -> BenchReport:
    return BenchReport()


def pytest_collection_modifyitems(config, items):
    # Everything under benchmarks/ is a benchmark: mark it so tier-1
    # runs can exclude the sweeps with ``-m "not bench"``.
    for item in items:
        item.add_marker(pytest.mark.bench)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _collected and not _collected_json:
        return
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    for experiment_id in sorted(_collected_json):
        path = os.path.join(_RESULTS_DIR, f"BENCH_{experiment_id}.json")
        with open(path, "w") as handle:
            json.dump(
                {"experiment": experiment_id,
                 "metrics": _collected_json[experiment_id]},
                handle, sort_keys=True, indent=2,
            )
            handle.write("\n")
    if not _collected:
        return
    terminalreporter.section("paper tables and figures (reproduced)")
    written: set[str] = set()
    for experiment_id, text in _collected:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
        path = os.path.join(_RESULTS_DIR, f"{experiment_id}.txt")
        # Fresh file per experiment per run; append within a run so a
        # partial benchmark selection doesn't clobber other results.
        mode = "a" if path in written else "w"
        written.add(path)
        with open(path, mode) as handle:
            handle.write(text + "\n\n")
