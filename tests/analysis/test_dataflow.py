"""Tests for the dataflow engine: solver, DF rules, suppressions and
SARIF.

Every DF rule gets a *firing* fixture asserting the exact line and a
*silent* fixture showing the compliant form of the same code — the
pair documents what the rule means better than its docstring can.
"""

import ast
import json
import textwrap

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (
    Analysis,
    check_paths,
    exit_states,
    sarif_report,
    solve,
)
from repro.analysis.diagnostics import is_suppressed, parse_suppressions
from repro.analysis.lattice import MapLattice, PowersetLattice
from repro.errors import AnalysisError
from tests.analysis.sarif import validate_sarif


def df(tmp_path, source, name="fixture.py", ignore=()):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return check_paths([path], ignore=ignore)


def fired(report, rule):
    return report.by_rule(rule)


def cfg_of(source):
    func = ast.parse(textwrap.dedent(source)).body[0]
    return build_cfg(func, name="fixture.py")


# ---------------------------------------------------------------------------
# lattices and solver
# ---------------------------------------------------------------------------

class TestLattices:
    def test_powerset_join_is_union(self):
        lattice = PowersetLattice()
        assert lattice.bottom() == frozenset()
        joined = lattice.join(frozenset({1}), frozenset({2}))
        assert joined == frozenset({1, 2})
        assert lattice.leq(frozenset({1}), joined)
        assert not lattice.leq(joined, frozenset({1}))

    def test_map_lattice_joins_pointwise_and_drops_bottom(self):
        lattice = MapLattice(PowersetLattice())
        a = frozenset({("x", frozenset({1}))})
        b = frozenset({("x", frozenset({2})), ("y", frozenset())})
        joined = lattice.join(a, b)
        assert dict(joined) == {"x": frozenset({1, 2})}
        assert lattice.leq(a, joined)

    def test_map_lattice_rejects_non_lattice_values(self):
        with pytest.raises(AnalysisError):
            MapLattice(object())


class GenAtCalls(Analysis):
    """Toy typestate: every call statement generates its line."""

    def transfer(self, node, state):
        if node.stmt is not None and any(
                isinstance(n, ast.Call) for n in ast.walk(node.stmt)):
            return state | {node.line}
        return state


class TestSolver:
    def test_facts_accumulate_along_paths(self):
        cfg = cfg_of("""\
            def f(flag):
                if flag:
                    a = one()
                else:
                    a = two()
                return a
            """)
        normal, _ = exit_states(cfg, GenAtCalls())
        assert normal == frozenset({3, 5})  # both branches joined

    def test_loop_converges_to_fixpoint(self):
        cfg = cfg_of("""\
            def f(n):
                while n:
                    n = step(n)
                return n
            """)
        states = solve(cfg, GenAtCalls())
        # the solution is a fixpoint: pushing any edge changes nothing
        analysis = GenAtCalls()
        for src, out in cfg.succs.items():
            for dst, kind in out:
                carried = (analysis.transfer_exc(cfg.nodes[src], states[src])
                           if kind == "exc"
                           else analysis.transfer(cfg.nodes[src],
                                                  states[src]))
                assert carried <= states[dst]

    def test_solve_is_deterministic(self):
        cfg = cfg_of("""\
            def f(items):
                for item in items:
                    use(item)
                return done()
            """)
        assert solve(cfg, GenAtCalls()) == solve(cfg, GenAtCalls())

    def test_non_monotone_transfer_is_caught(self):
        class Runaway(Analysis):
            def transfer(self, node, state):
                return frozenset({max(state, default=0) + 1})

        cfg = cfg_of("""\
            def f(n):
                while n:
                    n = step(n)
            """)
        with pytest.raises(AnalysisError, match="not.*monotone|monotone"):
            solve(cfg, Runaway())


# ---------------------------------------------------------------------------
# DF001 — pin/unpin
# ---------------------------------------------------------------------------

class TestDF001:
    def test_fires_on_pin_without_unpin(self, tmp_path):
        report = df(tmp_path, """\
            def leak(pool, page):
                pool.pin(page)
                pool.use(page)
            """)
        findings = fired(report, "DF001")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert "pool.pin(page)" in findings[0].message

    def test_fires_when_only_the_exception_path_leaks(self, tmp_path):
        report = df(tmp_path, """\
            def partial(pool, page):
                pool.pin(page)
                pool.use(page)
                pool.unpin(page)
            """)
        assert len(fired(report, "DF001")) == 1

    def test_silent_with_try_finally(self, tmp_path):
        report = df(tmp_path, """\
            def safe(pool, page):
                pool.pin(page)
                try:
                    pool.use(page)
                finally:
                    pool.unpin(page)
            """)
        assert fired(report, "DF001") == []

    def test_silent_when_teardown_clears_everything(self, tmp_path):
        report = df(tmp_path, """\
            def teardown(pool, page):
                pool.pin(page)
                pool.clear()
            """)
        assert fired(report, "DF001") == []


# ---------------------------------------------------------------------------
# DF002 — WAL commit-or-rollback
# ---------------------------------------------------------------------------

class TestDF002:
    def test_fires_on_uncommitted_write(self, tmp_path):
        report = df(tmp_path, """\
            def torn(wal):
                wal.begin()
                wal.log_write(b"x")
            """)
        findings = fired(report, "DF002")
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_silent_with_commit_and_rollback_paths(self, tmp_path):
        # the handler must be a catch-all: with `except ValueError` an
        # unmatched exception would escape log_write uncommitted, and
        # the rule (correctly) flags that path too
        report = df(tmp_path, """\
            def committed(wal):
                wal.begin()
                try:
                    wal.log_write(b"x")
                    wal.commit()
                except Exception:
                    wal.rollback()
                    raise
            """)
        assert fired(report, "DF002") == []


# ---------------------------------------------------------------------------
# DF003 — float taint into exact-rational sinks
# ---------------------------------------------------------------------------

class TestDF003:
    def test_float_literal_reaches_clock(self, tmp_path):
        report = df(tmp_path, """\
            def drift(clock):
                delay = 0.5
                clock.advance_to(delay)
            """)
        findings = fired(report, "DF003")
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "float literal" in findings[0].message

    def test_wall_clock_read_reaches_loop(self, tmp_path):
        report = df(tmp_path, """\
            import time

            def stamp(loop):
                now = time.monotonic()
                loop.after_ticks(now)
            """)
        findings = fired(report, "DF003")
        assert len(findings) == 1
        assert "wall-clock time.monotonic()" in findings[0].message

    def test_float_reaches_the_tick_scheduler(self, tmp_path):
        report = df(tmp_path, """\
            def step(loop, cost):
                ticks = float(cost)
                loop.after_ticks(ticks, step)
            """)
        findings = fired(report, "DF003")
        assert len(findings) == 1
        assert "loop.after_ticks(...)" in findings[0].message

    def test_float_literal_direct_into_rational(self, tmp_path):
        report = df(tmp_path, """\
            def direct():
                return Rational(0.1)
            """)
        assert len(fired(report, "DF003")) == 1

    def test_silent_through_sanctioned_conversion(self, tmp_path):
        report = df(tmp_path, """\
            def clean(clock):
                delay = as_rational(0.5)
                clock.advance_to(delay)
            """)
        assert fired(report, "DF003") == []

    def test_silent_on_exact_arguments(self, tmp_path):
        report = df(tmp_path, """\
            def exact(clock):
                delay = Rational(1, 10)
                clock.advance_to(delay)
            """)
        assert fired(report, "DF003") == []

    def test_reassignment_cleanses(self, tmp_path):
        report = df(tmp_path, """\
            def rebound(clock):
                delay = 0.5
                delay = as_rational(delay)
                clock.advance_to(delay)
            """)
        assert fired(report, "DF003") == []


# ---------------------------------------------------------------------------
# DF004 — unordered iteration
# ---------------------------------------------------------------------------

class TestDF004:
    def test_for_loop_over_set_variable(self, tmp_path):
        report = df(tmp_path, """\
            def scan(items):
                seen = set(items)
                for item in seen:
                    emit(item)
            """)
        findings = fired(report, "DF004")
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "set()" in findings[0].message

    def test_comprehension_over_set_literal(self, tmp_path):
        report = df(tmp_path, """\
            def combo():
                return [x for x in {1, 2, 3}]
            """)
        assert len(fired(report, "DF004")) == 1

    def test_listdir_order_is_flagged(self, tmp_path):
        report = df(tmp_path, """\
            import os

            def walk(root):
                for name in os.listdir(root):
                    emit(name)
            """)
        findings = fired(report, "DF004")
        assert len(findings) == 1
        assert "os.listdir" in findings[0].message

    def test_materializing_a_set_attribute(self, tmp_path):
        report = df(tmp_path, """\
            class Box:
                def __init__(self):
                    self.members = set()

                def dump(self):
                    return list(self.members)
            """)
        findings = fired(report, "DF004")
        assert len(findings) == 1
        assert "self.members" in findings[0].message

    def test_silent_under_sorted_and_folds(self, tmp_path):
        report = df(tmp_path, """\
            def stable(items):
                seen = set(items)
                for item in sorted(seen):
                    emit(item)
                return sum(x for x in seen) + len(seen)
            """)
        assert fired(report, "DF004") == []


# ---------------------------------------------------------------------------
# DF005 — resource close-or-escape
# ---------------------------------------------------------------------------

class TestDF005:
    def test_fires_on_leaked_connection(self, tmp_path):
        report = df(tmp_path, """\
            import sqlite3

            def leaky(path):
                conn = sqlite3.connect(path)
                conn.execute("select 1")
            """)
        findings = fired(report, "DF005")
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "'conn'" in findings[0].message

    def test_fires_on_exception_path_only(self, tmp_path):
        report = df(tmp_path, """\
            def fragile(path):
                store = open_tuned(path)
                store.warm()
                store.close()
            """)
        assert len(fired(report, "DF005")) == 1

    def test_silent_with_close_in_finally(self, tmp_path):
        report = df(tmp_path, """\
            import sqlite3

            def tidy(path):
                conn = sqlite3.connect(path)
                try:
                    conn.execute("select 1")
                finally:
                    conn.close()
            """)
        assert fired(report, "DF005") == []

    def test_silent_when_handle_escapes(self, tmp_path):
        report = df(tmp_path, """\
            import sqlite3

            def handoff(path, registry):
                conn = sqlite3.connect(path)
                registry.adopt(conn)
                other = sqlite3.connect(path)
                return other
            """)
        assert fired(report, "DF005") == []


# ---------------------------------------------------------------------------
# DF006 — silent swallow
# ---------------------------------------------------------------------------

class TestDF006:
    def test_fires_on_bare_pass(self, tmp_path):
        report = df(tmp_path, """\
            def quiet():
                try:
                    risky()
                except ValueError:
                    pass
            """)
        findings = fired(report, "DF006")
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "ValueError" in findings[0].message

    def test_fires_when_one_path_is_dark(self, tmp_path):
        report = df(tmp_path, """\
            def partial(events, flag):
                try:
                    risky()
                except ValueError:
                    if flag:
                        events.record("degraded")
            """)
        assert len(fired(report, "DF006")) == 1

    def test_silent_when_every_path_emits(self, tmp_path):
        report = df(tmp_path, """\
            def observed(events):
                try:
                    risky()
                except ValueError:
                    events.record("degraded")
            """)
        assert fired(report, "DF006") == []

    def test_silent_on_reraise(self, tmp_path):
        report = df(tmp_path, """\
            def propagates():
                try:
                    risky()
                except ValueError:
                    raise
            """)
        assert fired(report, "DF006") == []

    def test_stop_iteration_is_protocol_not_swallowing(self, tmp_path):
        report = df(tmp_path, """\
            def drain(it):
                try:
                    next(it)
                except StopIteration:
                    pass
            """)
        assert fired(report, "DF006") == []


# ---------------------------------------------------------------------------
# DF007 — shard-shared state ownership
# ---------------------------------------------------------------------------

class TestDF007:
    def test_fires_on_direct_mutation_from_fleet_code(self, tmp_path):
        report = df(tmp_path, """\
            class Fleet:
                def __init__(self):
                    self._shards = {}
                    self.cache = DerivationCache()

                def poke(self, key):
                    self.cache.put(key, 1)
            """)
        findings = fired(report, "DF007")
        assert len(findings) == 1
        assert findings[0].line == 7
        assert "self.cache.put" in findings[0].message

    def test_silent_inside_scoped_namespace(self, tmp_path):
        report = df(tmp_path, """\
            class Fleet:
                def __init__(self):
                    self._shards = {}
                    self.telemetry = TelemetryStore()

                def poke(self, obs, key):
                    with obs.scoped("shard-0"):
                        self.telemetry.record(key)
            """)
        assert fired(report, "DF007") == []

    def test_silent_outside_shard_owning_classes(self, tmp_path):
        report = df(tmp_path, """\
            class Worker:
                def __init__(self):
                    self.cache = DerivationCache()

                def poke(self, key):
                    self.cache.put(key, 1)
            """)
        assert fired(report, "DF007") == []


# ---------------------------------------------------------------------------
# DF008 — SimulatedCrash re-raise
# ---------------------------------------------------------------------------

class TestDF008:
    def test_fires_when_crash_is_absorbed(self, tmp_path):
        report = df(tmp_path, """\
            def absorb(run):
                try:
                    run()
                except SimulatedCrash:
                    cleanup()
            """)
        findings = fired(report, "DF008")
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_silent_when_every_path_reraises(self, tmp_path):
        report = df(tmp_path, """\
            def faithful(run):
                try:
                    run()
                except SimulatedCrash:
                    cleanup()
                    raise
            """)
        assert fired(report, "DF008") == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_trailing_comment_silences_its_line(self, tmp_path):
        report = df(tmp_path, """\
            def quiet():
                try:
                    risky()
                # repro: suppress DF006 — degradation is the contract here
                except ValueError:
                    pass
            """)
        assert fired(report, "DF006") == []

    def test_comment_above_silences_the_next_line(self, tmp_path):
        report = df(tmp_path, """\
            def leak(pool, page):
                # repro: suppress DF001 — pin outlives the call on purpose
                pool.pin(page)
                pool.use(page)
            """)
        assert fired(report, "DF001") == []

    def test_reason_is_mandatory(self, tmp_path):
        report = df(tmp_path, """\
            def quiet():
                try:
                    risky()
                # repro: suppress DF006
                except ValueError:
                    pass
            """)
        assert len(fired(report, "DF006")) == 1

    def test_suppression_only_covers_named_rules(self, tmp_path):
        report = df(tmp_path, """\
            def leak(pool, page):
                # repro: suppress DF002 — wrong rule named
                pool.pin(page)
                pool.use(page)
            """)
        assert len(fired(report, "DF001")) == 1

    def test_parse_and_match_multi_rule_comments(self):
        parsed = parse_suppressions(
            "x = 1\n"
            "# repro: suppress DF001, DF005 — teardown owns both\n"
            "y = 2\n"
        )
        assert len(parsed) == 1
        assert parsed[0].rules == frozenset({"DF001", "DF005"})
        assert parsed[0].reason == "teardown owns both"

        class Fake:
            rule = "DF005"
            line = 3

        assert is_suppressed(Fake(), parsed)


# ---------------------------------------------------------------------------
# ignore=
# ---------------------------------------------------------------------------

class TestIgnoreAndBaseline:
    SOURCE = """\
        def leak(pool, page):
            pool.pin(page)
            pool.use(page)
        """

    def test_ignore_drops_a_rule_id(self, tmp_path):
        assert fired(df(tmp_path, self.SOURCE, ignore=("DF001",)),
                     "DF001") == []


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------

class TestSarif:
    def test_round_trip_validates(self, tmp_path):
        report = df(tmp_path, """\
            def leak(pool, page):
                pool.pin(page)
                pool.use(page)
            """)
        payload = json.loads(json.dumps(sarif_report(report)))
        validate_sarif(payload)  # must not raise
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-dataflow"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["DF001"]
        result = run["results"][0]
        assert result["ruleId"] == "DF001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2

    def test_empty_report_is_valid_sarif(self, tmp_path):
        payload = sarif_report(df(tmp_path, "def fine():\n    return 1\n"))
        validate_sarif(payload)
        assert payload["runs"][0]["results"] == []

    def test_validator_rejects_structural_damage(self, tmp_path):
        payload = sarif_report(df(tmp_path, "def fine():\n    return 1\n"))
        payload["version"] = "2.0.0"
        with pytest.raises(AnalysisError, match="2.1.0"):
            validate_sarif(payload)


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------

class TestEngine:
    def test_syntax_error_is_df000_critical(self, tmp_path):
        report = df(tmp_path, "def broken(:\n")
        findings = fired(report, "DF000")
        assert len(findings) == 1
        assert not report.ok

    def test_reports_are_deterministic(self, tmp_path):
        source = """\
            def leak(pool, page):
                pool.pin(page)
                pool.use(page)

            def quiet():
                try:
                    risky()
                except ValueError:
                    pass
            """
        first = df(tmp_path, source).to_json()
        second = df(tmp_path, source).to_json()
        assert first == second

    def test_qualname_lands_in_the_message(self, tmp_path):
        report = df(tmp_path, """\
            class Pool:
                def grab(self, pool, page):
                    pool.pin(page)
                    pool.use(page)
            """)
        assert "[Pool.grab]" in fired(report, "DF001")[0].message
