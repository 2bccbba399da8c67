"""Intraprocedural dataflow engine: fixpoint solver and ``DF###`` rules.

The third analysis engine, beside the media-graph checker and the flat
linter. Where LN rules judge single statements, DF rules judge *paths*:
a pin must meet its unpin on every way out of the function, a WAL
transaction must reach commit-or-rollback, a float must not flow into
exact-rational clock arithmetic. The pipeline per function is

    ast.FunctionDef --build_cfg--> CFG --solve--> per-node states
                                     |--checkers--> Diagnostics

* :func:`solve` is a classic worklist fixpoint over a monotone
  lattice (:mod:`repro.analysis.lattice`). Edges tagged ``exc`` carry
  the *pre*-statement state through :meth:`Analysis.transfer_exc` (a
  partially-executed statement may not have taken effect); all other
  edges carry :meth:`Analysis.transfer`'s post-state.
* Checkers register with :func:`dataflow_rule`, mirroring the graph
  rules' decorator, so ``--list-rules`` and DESIGN.md render DF rules
  from the same registry.
* A finding is accepted only by a reasoned inline ``# repro:
  suppress DF00x — reason`` comment on the flagged line (or the line
  above), the grammar :mod:`repro.analysis.diagnostics` defines for
  every source engine; ``ignore=`` drops a rule id for one run. Every
  other finding gates.
* :func:`sarif_report` renders a report as SARIF 2.1.0 for editor and
  code-host ingestion; a structural validator in the test suite
  round-trips every emitted payload.

Pure ``ast`` + source text: analyzing the codebase never executes it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.analysis.cfg import CFG, build_cfg, function_defs
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    is_suppressed,
    parse_suppressions,
    rule_registry,
)
from repro.analysis.lattice import PowersetLattice
from repro.errors import AnalysisError
from repro.obs.events import Severity

#: rule id -> checker ``(FunctionContext) -> list[Diagnostic]``.
DATAFLOW_RULES: dict[str, Callable] = {}


def dataflow_rule(rule_id: str, title: str, severity: Severity,
                  doc: str = ""):
    """Register a dataflow rule under ``rule_id`` (engine ``dataflow``)."""

    def decorate(func: Callable) -> Callable:
        rule_registry.register(rule_id, title, severity, engine="dataflow",
                               doc=doc or (func.__doc__ or "").strip())
        DATAFLOW_RULES[rule_id] = func
        func.rule_id = rule_id
        func.default_severity = severity
        return func

    return decorate


# ---------------------------------------------------------------------------
# fixpoint solver
# ---------------------------------------------------------------------------

class Analysis:
    """A forward dataflow problem over one CFG.

    Subclasses provide the lattice and the transfer functions. States
    must be immutable values (the solver compares them for equality to
    detect convergence).
    """

    lattice = PowersetLattice()

    def initial(self):
        """State entering the function at ``entry``."""
        return self.lattice.bottom()

    def transfer(self, node, state):
        """Post-state after the node completes normally."""
        return state

    def transfer_exc(self, node, state):
        """State carried on the node's ``exc`` edges.

        Default: the pre-state — a statement that raised may not have
        taken effect. Typestate analyses override this to keep their
        *kills* (a release that raises still released) while dropping
        their *gens* (an acquire that raised never acquired).
        """
        return state

    def height_hint(self, cfg: CFG) -> int:
        """Upper bound on ascending-chain length, for the safety net."""
        return max(4 * len(cfg), 64)


def solve(cfg: CFG, analysis: Analysis) -> dict[int, object]:
    """Worklist fixpoint: the state *entering* each node, by node id.

    Deterministic: the worklist drains in node-id order and powerset
    joins are order-insensitive, so repeated runs produce identical
    maps. Raises :class:`AnalysisError` if the iteration budget —
    ``edges × (height + 1)`` node evaluations — is exhausted, which a
    monotone transfer function cannot do.
    """
    lattice = analysis.lattice
    states: dict[int, object] = {n: lattice.bottom() for n in cfg.nodes}
    states[cfg.entry] = analysis.initial()

    pending = sorted(cfg.nodes)
    in_worklist = set(pending)
    budget = (cfg.edge_count() + len(cfg)) * (analysis.height_hint(cfg) + 1)
    evaluations = 0
    while pending:
        node_id = pending.pop(0)
        in_worklist.discard(node_id)
        evaluations += 1
        if evaluations > budget:
            raise AnalysisError(
                f"dataflow fixpoint for {cfg.qualname} exceeded "
                f"{budget} evaluations; transfer function is not "
                "monotone over the lattice")
        node = cfg.nodes[node_id]
        new_state = states[node_id]
        for pred_id, kind in sorted(cfg.preds[node_id]):
            pred_state = states[pred_id]
            pred = cfg.nodes[pred_id]
            carried = (analysis.transfer_exc(pred, pred_state)
                       if kind == "exc"
                       else analysis.transfer(pred, pred_state))
            new_state = lattice.join(new_state, carried)
        if node_id == cfg.entry:
            new_state = lattice.join(new_state, analysis.initial())
        if new_state != states[node_id]:
            states[node_id] = new_state
            for succ_id, _ in cfg.succs[node_id]:
                if succ_id not in in_worklist:
                    pending.append(succ_id)
                    in_worklist.add(succ_id)
            pending.sort()
    return states


def exit_states(cfg: CFG, analysis: Analysis,
                states: dict[int, object] | None = None) -> tuple:
    """(state at normal exit, state at raise-exit) after solving."""
    if states is None:
        states = solve(cfg, analysis)
    return states[cfg.exit], states[cfg.raise_exit]


# ---------------------------------------------------------------------------
# per-function checker context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassInfo:
    """What one class declares, collected module-wide before checking.

    ``set_attrs`` are ``self.X`` attributes initialized to (or
    annotated as) sets; ``shard_owner`` marks classes that hold a
    ``self._shards`` table — the fleet role DF007 polices.
    """

    name: str
    set_attrs: frozenset[str] = frozenset()
    shard_owner: bool = False


@dataclass
class FunctionContext:
    """Everything a checker may ask about one function."""

    location: str  # repo-relative, forward slashes
    qualname: str
    func: ast.AST
    cfg: CFG
    class_info: ClassInfo | None = None
    _states: dict = field(default_factory=dict, repr=False)

    def solved(self, analysis: Analysis) -> dict[int, object]:
        """Solve (and memoize per analysis type) over this CFG."""
        key = type(analysis).__name__
        if key not in self._states:
            self._states[key] = solve(self.cfg, analysis)
        return self._states[key]

    def diagnostic(self, rule: str, line: int, message: str,
                   hint: str) -> Diagnostic:
        return Diagnostic(
            rule=rule, severity=rule_registry.get(rule).default_severity,
            location=self.location, line=line,
            message=f"{message} [{self.qualname}]", hint=hint,
        )


def _collect_class_info(tree: ast.Module) -> dict[str, ClassInfo]:
    """Scan class bodies for set-typed attrs and shard ownership."""

    def is_set_expr(expr: ast.AST | None) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in ("set", "frozenset")
        return False

    def is_set_annotation(annotation: ast.AST | None) -> bool:
        if isinstance(annotation, ast.Name):
            return annotation.id in ("set", "frozenset")
        if isinstance(annotation, ast.Subscript):
            return is_set_annotation(annotation.value)
        return False

    classes: dict[str, ClassInfo] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        set_attrs: set[str] = set()
        shard_owner = False
        for inner in ast.walk(node):
            target = None
            value = None
            annotation = None
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                target, value = inner.targets[0], inner.value
            elif isinstance(inner, ast.AnnAssign):
                target, value = inner.target, inner.value
                annotation = inner.annotation
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if target.attr == "_shards":
                shard_owner = True
            if is_set_expr(value) or is_set_annotation(annotation):
                set_attrs.add(target.attr)
        classes[node.name] = ClassInfo(
            node.name, frozenset(set_attrs), shard_owner)
    return classes


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class DataflowEngine:
    """Runs every registered DF rule over a tree of Python sources.

    Mirrors :class:`~repro.analysis.lint.LintEngine`: ``root`` defaults
    to the installed ``repro`` package, locations are reported relative
    to its parent, files walk in sorted order so reports render
    byte-identically across runs.
    """

    def __init__(self, root: Path | str | None = None,
                 ignore: Iterable[str] = ()):
        if root is None:
            import repro

            root = Path(repro.__file__).parent
        self.root = Path(root)
        if not self.root.is_dir():
            raise AnalysisError(
                f"dataflow root {self.root} is not a directory")
        self.ignore = frozenset(ignore)
        # import for the registration side effect (mirrors rules/)
        from repro.analysis import checkers  # noqa: F401

    def files(self) -> list[Path]:
        return sorted(self.root.rglob("*.py"))

    def run(self) -> DiagnosticReport:
        report = DiagnosticReport(subject=f"dataflow:{self.root.name}")
        for path in self.files():
            self.check_file(path, report)
        return report

    def check_file(self, path: Path,
                   report: DiagnosticReport | None = None
                   ) -> DiagnosticReport:
        if report is None:
            report = DiagnosticReport(subject=f"dataflow:{path.name}")
        location = path.relative_to(self.root.parent).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            report.add(Diagnostic(
                rule="DF000", severity=Severity.CRITICAL,
                location=location, line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error",
            ))
            return report
        suppressions = parse_suppressions(source)
        classes = _collect_class_info(tree)
        for ctx in self.function_contexts(tree, location, classes):
            for rule_id in sorted(DATAFLOW_RULES):
                if rule_id in self.ignore:
                    continue
                for diagnostic in DATAFLOW_RULES[rule_id](ctx):
                    if not is_suppressed(diagnostic, suppressions):
                        report.add(diagnostic)
        return report

    def function_contexts(self, tree: ast.Module, location: str,
                          classes: dict[str, ClassInfo]
                          ) -> Iterable[FunctionContext]:
        for qualname, class_def, func in function_defs(tree):
            class_info = classes.get(class_def.name) if class_def else None
            yield FunctionContext(
                location=location, qualname=qualname, func=func,
                cfg=build_cfg(func, name=location, qualname=qualname),
                class_info=class_info,
            )


def check_repo(ignore: Iterable[str] = ()) -> DiagnosticReport:
    """Dataflow-check the installed ``repro`` package sources."""
    return DataflowEngine(ignore=ignore).run()


def check_paths(paths: Iterable[Path | str],
                ignore: Iterable[str] = ()) -> DiagnosticReport:
    """Dataflow-check loose files/directories (fixtures, scripts)."""
    report = DiagnosticReport(subject="dataflow:paths")
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            report.merge(DataflowEngine(entry, ignore=ignore).run())
        else:
            engine = DataflowEngine(entry.parent, ignore=ignore)
            engine.check_file(entry, report)
    return report


# ---------------------------------------------------------------------------
# SARIF 2.1.0
# ---------------------------------------------------------------------------

_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _sarif_level(severity: Severity) -> str:
    if severity >= Severity.ERROR:
        return "error"
    if severity >= Severity.WARNING:
        return "warning"
    return "note"


def sarif_report(report: DiagnosticReport) -> dict:
    """Render a diagnostic report as a SARIF 2.1.0 log object."""
    fired = set(report.rules())
    rules = [
        {
            "id": info.rule_id,
            "shortDescription": {"text": info.title},
            "fullDescription": {"text": info.doc or info.title},
            "defaultConfiguration": {
                "level": _sarif_level(info.default_severity),
            },
        }
        for info in (rule_registry.get(rule_id)
                     for rule_id in sorted(fired)
                     if rule_id in rule_registry)
    ]
    results = [
        {
            "ruleId": diagnostic.rule,
            "level": _sarif_level(diagnostic.severity),
            "message": {"text": diagnostic.message + (
                f" (hint: {diagnostic.hint})" if diagnostic.hint else "")},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": diagnostic.location},
                    "region": {"startLine": diagnostic.line or 1},
                },
            }],
        }
        for diagnostic in report.diagnostics
    ]
    return {
        "$schema": _SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-dataflow",
                    "informationUri":
                        "https://example.invalid/repro/DESIGN.md#17",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


__all__ = [
    "Analysis",
    "ClassInfo",
    "DATAFLOW_RULES",
    "DataflowEngine",
    "FunctionContext",
    "check_paths",
    "check_repo",
    "dataflow_rule",
    "exit_states",
    "sarif_report",
    "solve",
]
