"""Tests for the static-verification CLI gate."""

import json

from repro.tools.check import list_rules_text, main, run_external, run_graph


class TestCheckCli:
    def test_list_rules_prints_the_registry(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("MG001", "MG009", "LN001", "LN006"):
            assert rule in out

    def test_lint_stage_passes_on_this_repo(self, capsys):
        assert main(["--lint"]) == 0
        out = capsys.readouterr().out
        assert "lint:repro: 0 finding(s)" in out
        assert "check passed" in out

    def test_lint_json_output(self, capsys):
        assert main(["--lint", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[:out.rindex("}") + 1])
        assert payload["ok"] is True
        assert payload["subject"] == "lint:repro"

    def test_graph_stage_passes_on_the_exemplars(self, capsys):
        assert main(["--graph", "--ignore", "MG005"]) == 0
        out = capsys.readouterr().out
        assert "graph:exemplars" in out

    def test_no_stage_flag_runs_every_static_stage(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for stage in ("graph:exemplars", "lint:repro", "dataflow:repro",
                      "style (ruff)", "types (mypy)"):
            assert stage in out
        assert "check passed" in out

    def test_missing_external_tools_skip_not_fail(self, capsys):
        status, detail = run_external("definitely-not-a-tool", [])
        assert status == "skipped"
        assert "not installed" in detail


class TestGraphStage:
    def test_exemplars_have_no_errors(self):
        report = run_graph()
        assert report.ok
        # Overlapping audio tracks in the exemplars surface as
        # warnings; nothing else fires on a clean tree.
        assert set(report.rules()) <= {"MG005"}

    def test_rule_table_text_is_deterministic(self):
        assert list_rules_text() == list_rules_text()


class TestBenchCompare:
    def write_baseline(self, tmp_path, metrics):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"experiment": "telemetry", "metrics": metrics}))
        return baseline

    def write_current(self, tmp_path, metrics):
        results = tmp_path / "results"
        results.mkdir(exist_ok=True)
        (results / "BENCH_telemetry.json").write_text(json.dumps(
            {"experiment": "telemetry", "metrics": metrics}))
        return results

    def test_matching_throughput_passes(self, tmp_path):
        from repro.tools.check import run_bench_compare

        baseline = self.write_baseline(
            tmp_path, {"serves_per_second_bare": 10.0})
        results = self.write_current(
            tmp_path, {"serves_per_second_bare": 9.5})
        passed, text = run_bench_compare(str(baseline), results)
        assert passed
        assert "ok" in text

    def test_large_regression_fails(self, tmp_path):
        from repro.tools.check import run_bench_compare

        baseline = self.write_baseline(
            tmp_path, {"serves_per_second_bare": 10.0})
        results = self.write_current(
            tmp_path, {"serves_per_second_bare": 5.0})
        passed, text = run_bench_compare(str(baseline), results)
        assert not passed
        assert "FAIL" in text

    def test_informational_metrics_never_gate(self, tmp_path):
        from repro.tools.check import run_bench_compare

        baseline = self.write_baseline(tmp_path, {"scrapes": 14.0})
        results = self.write_current(tmp_path, {"scrapes": 2.0})
        passed, _ = run_bench_compare(str(baseline), results)
        assert passed

    def test_missing_current_result_fails_gating_metric(self, tmp_path):
        from repro.tools.check import run_bench_compare

        baseline = self.write_baseline(
            tmp_path, {"serves_per_second_bare": 10.0})
        results = tmp_path / "results"
        results.mkdir()
        passed, text = run_bench_compare(str(baseline), results)
        assert not passed

    def test_missing_baseline_fails(self, tmp_path):
        from repro.tools.check import run_bench_compare

        passed, text = run_bench_compare(str(tmp_path / "nope.json"))
        assert not passed
        assert "no baseline" in text


class TestDataflowStage:
    PIN_LEAK = (
        "def leak(pool, page):\n"
        "    pool.pin(page)\n"
        "    pool.use(page)\n"
    )

    def test_dataflow_stage_runs_clean_on_this_repo(self, capsys):
        assert main(["--dataflow"]) == 0
        out = capsys.readouterr().out
        assert "dataflow:repro: 0 finding(s)" in out
        assert "check passed" in out

    def test_list_rules_includes_every_engine(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("MG001", "LN001", "DF001", "DF008"):
            assert rule in out

    def test_rule_ranges_cover_all_engines(self):
        from repro.tools.check import rule_ranges

        ranges = rule_ranges()
        assert "DF001-DF008" in ranges
        assert "MG001-" in ranges and "LN001-" in ranges

    def test_pin_leak_fixture_fails_the_stage(self, tmp_path, capsys):
        (tmp_path / "scratch.py").write_text(self.PIN_LEAK)
        assert main(["--dataflow", "--dataflow-root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DF001" in out
        assert "check failed: dataflow" in out

    def test_custom_root_passes_when_clean(self, tmp_path, capsys):
        (tmp_path / "fine.py").write_text("def ok():\n    return 1\n")
        assert main(["--dataflow", "--dataflow-root", str(tmp_path)]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_sarif_output_round_trips(self, tmp_path, capsys):
        from tests.analysis.sarif import validate_sarif

        (tmp_path / "scratch.py").write_text(self.PIN_LEAK)
        sarif_path = tmp_path / "findings.sarif"
        assert main(["--dataflow", "--dataflow-root", str(tmp_path),
                     "--sarif", str(sarif_path)]) == 1
        payload = json.loads(sarif_path.read_text())
        validate_sarif(payload)
        assert payload["runs"][0]["results"][0]["ruleId"] == "DF001"
        assert "SARIF written" in capsys.readouterr().out

