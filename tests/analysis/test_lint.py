"""Tests for the determinism/taxonomy linter (rules LN001-LN008)."""

import textwrap

import pytest

from repro.analysis import LintEngine, lint_paths
from repro.errors import AnalysisError
from repro.obs import Severity


def lint_source(tmp_path, source, name="fixture.py", ignore=()):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], ignore=ignore)


class TestWallClock:
    def test_time_time_flagged_with_line(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            def stamp():
                return time.time()
            """)
        findings = report.by_rule("LN001")
        assert len(findings) == 1
        assert findings[0].line == 4
        assert findings[0].location.endswith("fixture.py")

    def test_monotonic_and_sleep_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            def nap():
                time.sleep(1)
                return time.monotonic()
            """)
        assert len(report.by_rule("LN001")) == 2

    def test_simulated_clock_calls_pass(self, tmp_path):
        report = lint_source(tmp_path, """\
            def advance(clock):
                return clock.now() + clock.tick()
            """)
        assert report.by_rule("LN001") == []


class TestRandomness:
    def test_global_random_import_flagged(self, tmp_path):
        report = lint_source(tmp_path, "import random\n")
        assert len(report.by_rule("LN002")) == 1

    def test_from_random_import_flagged(self, tmp_path):
        report = lint_source(tmp_path, "from random import shuffle\n")
        assert len(report.by_rule("LN002")) == 1

    def test_unseeded_default_rng_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            import numpy as np

            rng = np.random.default_rng()
            """)
        findings = report.by_rule("LN002")
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_seeded_default_rng_passes(self, tmp_path):
        report = lint_source(tmp_path, """\
            import numpy as np

            rng = np.random.default_rng(7)
            other = np.random.default_rng(seed=11)
            """)
        assert report.by_rule("LN002") == []


class TestErrorTaxonomy:
    def test_builtin_raise_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            def f(x):
                raise ValueError(f"bad {x}")
            """)
        findings = report.by_rule("LN003")
        assert len(findings) == 1
        assert "ValueError" in findings[0].message

    def test_taxonomy_and_sanctioned_raises_pass(self, tmp_path):
        report = lint_source(tmp_path, """\
            from repro.errors import EngineError

            def f():
                raise EngineError("nope")

            def g():
                raise NotImplementedError
            """)
        assert report.by_rule("LN003") == []

    def test_unparsable_file_is_critical(self, tmp_path):
        report = lint_source(tmp_path, "def broken(:\n")
        findings = report.by_rule("LN003")
        assert len(findings) == 1
        assert findings[0].severity is Severity.CRITICAL


class TestMutableDefaults:
    def test_list_and_dict_call_defaults_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            def f(items=[], table=dict()):
                return items, table
            """)
        assert len(report.by_rule("LN004")) == 2

    def test_immutable_defaults_pass(self, tmp_path):
        report = lint_source(tmp_path, """\
            def f(items=(), name=None, flags=frozenset()):
                return items, name, flags
            """)
        assert report.by_rule("LN004") == []


class TestApiAllSync:
    def lint_facade(self, tmp_path, source):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "api.py").write_text(textwrap.dedent(source))
        return LintEngine(root).run()

    def test_matching_all_passes(self, tmp_path):
        report = self.lint_facade(tmp_path, """\
            from __future__ import annotations

            from os.path import join

            __all__ = ["join"]
            """)
        assert report.by_rule("LN005") == []

    def test_both_drift_directions_flagged(self, tmp_path):
        report = self.lint_facade(tmp_path, """\
            from os.path import join, split

            __all__ = ["join", "phantom"]
            """)
        messages = [d.message for d in report.by_rule("LN005")]
        assert any("phantom" in m for m in messages)
        assert any("split" in m for m in messages)

    def test_missing_all_flagged(self, tmp_path):
        report = self.lint_facade(tmp_path, "from os.path import join\n")
        assert len(report.by_rule("LN005")) == 1


class TestEventSeverity:
    def test_record_without_severity_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            def emit(obs):
                obs.events.record("engine", "started")
            """)
        assert len(report.by_rule("LN006")) == 1

    def test_severity_first_passes(self, tmp_path):
        report = lint_source(tmp_path, """\
            def emit(obs, verdict):
                obs.events.record(Severity.WARNING, "engine", "late")
                obs.events.record(verdict.severity, "engine", "slo")
            """)
        assert report.by_rule("LN006") == []

    def test_media_recorder_record_not_confused(self, tmp_path):
        report = lint_source(tmp_path, """\
            def capture(recorder, objects):
                return recorder.record(objects)
            """)
        assert report.by_rule("LN006") == []


class TestRawWrites:
    def test_write_mode_open_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            def save(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """)
        findings = report.by_rule("LN007")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert "durability" in findings[0].hint

    def test_append_exclusive_and_update_modes_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            def f(path):
                open(path, "a").close()
                open(path, mode="x").close()
                open(path, "r+b").close()
            """)
        assert len(report.by_rule("LN007")) == 3

    def test_read_mode_and_default_pass(self, tmp_path):
        report = lint_source(tmp_path, """\
            def load(path):
                with open(path) as a, open(path, "rb") as b:
                    return a.read(), b.read()
            """)
        assert report.by_rule("LN007") == []

    def test_method_named_open_not_confused(self, tmp_path):
        report = lint_source(tmp_path, """\
            def save(fs, path, data):
                with fs.open(path, "wb") as handle:
                    handle.write(data)
            """)
        assert report.by_rule("LN007") == []

    def test_variable_mode_passes(self, tmp_path):
        """A non-constant mode cannot be judged statically; the rule
        stays quiet rather than guessing."""
        report = lint_source(tmp_path, """\
            def reopen(path, mode):
                return open(path, mode)
            """)
        assert report.by_rule("LN007") == []


class TestEngineApi:
    def test_ignore_suppresses_by_id(self, tmp_path):
        report = lint_source(tmp_path, "import random\n", ignore=("LN002",))
        assert len(report) == 0

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            LintEngine(tmp_path / "absent")

    def test_locations_are_root_relative(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("import random\n")
        report = LintEngine(tmp_path / "pkg").run()
        assert [d.location for d in report] == ["pkg/sub/mod.py"]


class TestEventTimestamps:
    def test_wallclock_at_flagged_anywhere(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            def emit(obs):
                obs.events.record(Severity.INFO, "engine", "started",
                                  at=time.time())
            """)
        findings = report.by_rule("LN008")
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_simulated_at_passes(self, tmp_path):
        report = lint_source(tmp_path, """\
            def emit(obs, clock):
                obs.events.record(Severity.INFO, "engine", "started",
                                  at=clock.now())
            """)
        assert report.by_rule("LN008") == []

    def test_missing_at_tolerated_outside_simclock_modules(self, tmp_path):
        report = lint_source(tmp_path, """\
            def emit(obs):
                obs.events.record(Severity.INFO, "engine", "started")
            """)
        assert report.by_rule("LN008") == []

    def test_missing_at_flagged_in_simclock_modules(self, tmp_path):
        module = tmp_path / "repro" / "obs" / "telemetry.py"
        module.parent.mkdir(parents=True)
        module.write_text(textwrap.dedent("""\
            def emit(events, state):
                events.record(Severity.WARNING, "telemetry", "alert")
            """))
        report = lint_paths([tmp_path / "repro"])
        findings = report.by_rule("LN008")
        assert len(findings) == 1
        assert "simulated-clock" in findings[0].message

    def test_severity_subscript_accepted_by_ln006(self, tmp_path):
        report = lint_source(tmp_path, """\
            SEVERITY_OF = {"firing": Severity.ERROR}

            def emit(obs, state, when):
                obs.events.record(SEVERITY_OF[state], "telemetry", "alert",
                                  at=when)
            """)
        assert report.by_rule("LN006") == []

    def test_shipped_telemetry_module_passes_the_gate(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        report = LintEngine(root).run()
        assert report.by_rule("LN008") == []


class TestProtocolRaises:
    def test_module_getattr_may_raise_attribute_error(self, tmp_path):
        report = lint_source(tmp_path, """\
            def __getattr__(name):
                raise AttributeError(f"no attribute {name!r}")
            """)
        assert report.by_rule("LN003") == []

    def test_attribute_error_elsewhere_still_flagged(self, tmp_path):
        report = lint_source(tmp_path, """\
            def lookup(name):
                raise AttributeError(name)
            """)
        assert len(report.by_rule("LN003")) == 1


class TestSuppressions:
    """The inline grammar the dataflow engine honours silences LN
    findings the same way."""

    def test_trailing_comment_silences_its_line(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            def stamp():
                return time.time()  # repro: suppress LN001 — host timing
            """)
        assert report.by_rule("LN001") == []

    def test_comment_above_silences_the_next_line(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            def stamp():
                # repro: suppress LN001 — host timing is the point
                begin = time.perf_counter()
                return time.perf_counter() - begin
            """)
        findings = report.by_rule("LN001")
        assert [f.line for f in findings] == [6]

    def test_reason_is_mandatory(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            def stamp():
                # repro: suppress LN001
                return time.time()
            """)
        assert len(report.by_rule("LN001")) == 1

    def test_suppression_only_covers_named_rules(self, tmp_path):
        report = lint_source(tmp_path, """\
            import time

            def stamp():
                # repro: suppress LN004 — wrong rule named
                return time.time()
            """)
        assert len(report.by_rule("LN001")) == 1
