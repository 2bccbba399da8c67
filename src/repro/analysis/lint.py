"""AST linter enforcing the library's own contracts (rules ``LN###``).

The repo promises bit-identical reruns and one error taxonomy; this
linter makes those promises checkable:

* **LN001** — no wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now`` …). Simulated clocks are the determinism contract;
  host-time measurement belongs to the benchmarks, outside ``src``.
* **LN002** — no unseeded randomness: the stateful global ``random``
  module and ``default_rng()`` / ``Random()`` without a seed argument
  are banned everywhere.
* **LN003** — every ``raise`` uses the :class:`~repro.errors.ReproError`
  taxonomy; builtin exceptions are reserved for the interpreter
  (``NotImplementedError`` stays the abstract-method idiom).
* **LN004** — no mutable default arguments.
* **LN005** — ``repro.api.__all__`` matches the facade's actual public
  bindings, both directions.
* **LN006** — flight-recorder emissions (``*.events.record(...)``)
  always pass a severity first, so the recorder's ring can be filtered
  by level without guessing.
* **LN007** — durability-critical writes route through the durability
  layer: the builtin ``open()`` with a literal write mode is banned, so
  every mutation goes through :mod:`repro.durability.fs` (the single
  raw-IO funnel, whose mode is a parameter) and can be crash-tested
  through the simulated medium and the WAL/atomic-commit helpers.
* **LN008** — flight-recorder events carry a simulated-clock
  timestamp: an ``at=`` keyword whose value is a wall-clock call is
  banned everywhere, and modules in :data:`SIMCLOCK_EVENT_MODULES`
  (which emit outside any recorder-installed clock scope) must pass
  ``at=`` explicitly so their events never fall back to the logical
  tick counter mid-serve.

A finding is accepted by a reasoned ``# repro: suppress LN00x — reason``
comment on its line or the line above — the same grammar the dataflow
engine honours (:func:`repro.analysis.diagnostics.parse_suppressions`).

Pure ``ast`` — nothing is imported or executed, so linting the codebase
cannot perturb it.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path
from typing import Iterable

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    is_suppressed,
    parse_suppressions,
    rule_registry,
)
from repro.errors import AnalysisError
from repro.obs.events import Severity

#: Modules whose flight-recorder emissions must pass ``at=`` explicitly
#: (LN008): they record during a simulated run but outside any
#: recorder-installed clock scope, so an omitted timestamp would
#: silently mix logical ticks into a simulated-time series.
SIMCLOCK_EVENT_MODULES: frozenset[str] = frozenset({
    "repro/obs/telemetry.py",
})

#: Builtin raises that stay legitimate: abstract methods and iterator
#: protocol.
SANCTIONED_BUILTIN_RAISES: frozenset[str] = frozenset({
    "NotImplementedError",
    "StopIteration",
    "StopAsyncIteration",
})

_BUILTIN_EXCEPTIONS: frozenset[str] = frozenset(
    name for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)

_WALLCLOCK_CALLS: frozenset[tuple[str, str]] = frozenset({
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("time", "sleep"), ("datetime", "now"), ("datetime", "utcnow"),
    ("datetime", "today"), ("date", "today"),
})

for _rule, _title, _sev, _doc in (
    ("LN001", "wall-clock read", Severity.ERROR,
     "Wall-clock or sleep call; the determinism contract requires "
     "simulated time."),
    ("LN002", "unseeded randomness", Severity.ERROR,
     "Global random module, or an RNG constructed without a seed."),
    ("LN003", "builtin exception raised", Severity.ERROR,
     "A raise bypasses the ReproError taxonomy."),
    ("LN004", "mutable default argument", Severity.ERROR,
     "A def uses a list/dict/set literal (or constructor) as a default."),
    ("LN005", "api.__all__ out of sync", Severity.ERROR,
     "repro.api exports and __all__ disagree."),
    ("LN006", "severity-less event emission", Severity.ERROR,
     "A flight-recorder record() call does not lead with a severity."),
    ("LN007", "raw write bypasses the durability layer", Severity.ERROR,
     "A builtin open() with a literal write mode; such writes are "
     "invisible to the crash matrix."),
    ("LN008", "wall-clock event timestamp", Severity.ERROR,
     "A flight-recorder record() stamps at= from a wall clock, or a "
     "module required to pass simulated time omits at= entirely."),
):
    rule_registry.register(_rule, _title, _sev, engine="lint", doc=_doc)


def _call_name(node: ast.Call) -> tuple[str | None, str]:
    """(receiver, method) for a call: ``time.sleep(1)`` -> ("time", "sleep")."""
    func = node.func
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id, func.attr
        if isinstance(value, ast.Attribute):
            return value.attr, func.attr
        return None, func.attr
    if isinstance(func, ast.Name):
        return None, func.id
    return None, ""


def _has_seed_argument(node: ast.Call) -> bool:
    if any(not isinstance(a, ast.Constant) or a.value is not None
           for a in node.args):
        return True
    return any(kw.arg == "seed" and not (
        isinstance(kw.value, ast.Constant) and kw.value.value is None
    ) for kw in node.keywords)


def _is_severity_expression(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "Severity":
            return True
        return node.attr == "severity"
    if isinstance(node, ast.Name):
        return "severity" in node.id.lower()
    if isinstance(node, ast.Subscript):
        # a lookup in a severity table, e.g. _TRANSITION_SEVERITY[state]
        return _is_severity_expression(node.value)
    if isinstance(node, ast.Call):
        _, method = _call_name(node)
        return method == "coerce"
    return False


class _FileLinter(ast.NodeVisitor):
    """One file's pass for LN001-LN004 and LN006."""

    def __init__(self, location: str, report: DiagnosticReport,
                 ignore: frozenset[str]):
        self.location = location
        self.report = report
        self.ignore = ignore
        self.require_event_at = location in SIMCLOCK_EVENT_MODULES
        self._function_stack: list[str] = []

    def _emit(self, rule: str, line: int, message: str, hint: str) -> None:
        if rule in self.ignore:
            return
        self.report.add(Diagnostic(
            rule=rule, severity=rule_registry.get(rule).default_severity,
            location=self.location, line=line, message=message, hint=hint,
        ))

    # -- LN002: imports of the global random module --------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "random":
                self._emit(
                    "LN002", node.lineno,
                    "import of the stateful global random module",
                    "use numpy.random.default_rng(seed)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] == "random":
            self._emit(
                "LN002", node.lineno,
                "import from the stateful global random module",
                "use numpy.random.default_rng(seed)",
            )
        self.generic_visit(node)

    # -- calls: LN001, LN002, LN006 ------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        receiver, method = _call_name(node)
        if (receiver, method) in _WALLCLOCK_CALLS:
            self._emit(
                "LN001", node.lineno,
                f"wall-clock call {receiver}.{method}()",
                "charge simulated time from the CostModel; a deliberate "
                "host-time measurement takes a reasoned "
                "`# repro: suppress LN001 — ...` comment",
            )
        if method in ("default_rng", "Random") \
                and not _has_seed_argument(node):
            self._emit(
                "LN002", node.lineno,
                f"{method}() constructed without a seed",
                "pass an explicit seed so reruns are bit-identical",
            )
        if receiver == "random" and method not in ("default_rng", "Random"):
            self._emit(
                "LN002", node.lineno,
                f"call into global random state: random.{method}()",
                "use a seeded numpy Generator instead",
            )
        if receiver is None and method == "open":
            mode = self._open_mode(node)
            if mode is not None and any(ch in mode for ch in "wax+"):
                self._emit(
                    "LN007", node.lineno,
                    f"builtin open(..., {mode!r}) bypasses the "
                    "durability layer",
                    "write through repro.durability (atomic_write_bytes, "
                    "a WriteAheadLog, or a Filesystem handle) so the "
                    "crash matrix can intercept the write",
                )
        if method == "record" and self._is_events_receiver(node.func):
            first = node.args[0] if node.args else None
            if first is None or not _is_severity_expression(first):
                self._emit(
                    "LN006", node.lineno,
                    "flight-recorder record() without a leading severity",
                    "pass a Severity (e.g. Severity.WARNING) as the "
                    "first argument",
                )
            at = next((kw.value for kw in node.keywords
                       if kw.arg == "at"), None)
            if isinstance(at, ast.Call) \
                    and _call_name(at) in _WALLCLOCK_CALLS:
                self._emit(
                    "LN008", node.lineno,
                    "flight-recorder record() stamps at= from a wall "
                    "clock",
                    "pass the simulated clock (loop.clock.now()) or a "
                    "logical tick instead",
                )
            elif at is None and self.require_event_at:
                self._emit(
                    "LN008", node.lineno,
                    "flight-recorder record() without an explicit "
                    "simulated-clock at=",
                    "this module emits outside a recorder clock scope; "
                    "pass at=<simulated time> so events never fall "
                    "back to logical ticks",
                )
        self.generic_visit(node)

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        """The constant mode string of an ``open()`` call, if present."""
        mode: ast.AST | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    @staticmethod
    def _is_events_receiver(func: ast.AST) -> bool:
        if not isinstance(func, ast.Attribute):
            return False
        value = func.value
        if isinstance(value, ast.Name):
            return value.id == "events"
        if isinstance(value, ast.Attribute):
            return value.attr == "events"
        return False

    # -- LN003: raises ---------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        # PEP 562 module __getattr__ (and class __getattribute__) MUST
        # raise a genuine AttributeError for hasattr/import machinery
        protocol_raise = (
            name == "AttributeError"
            and self._function_stack
            and self._function_stack[-1] in ("__getattr__",
                                             "__getattribute__")
        )
        if name in _BUILTIN_EXCEPTIONS \
                and name not in SANCTIONED_BUILTIN_RAISES \
                and not protocol_raise:
            self._emit(
                "LN003", node.lineno,
                f"raises builtin {name}; library errors use the "
                "ReproError taxonomy",
                "raise a repro.errors subclass (add one inheriting the "
                "builtin if callers catch it)",
            )
        self.generic_visit(node)

    # -- LN004: mutable defaults ----------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            )
            if isinstance(default, ast.Call):
                _, method = _call_name(default)
                mutable = method in ("list", "dict", "set", "bytearray")
            if mutable:
                self._emit(
                    "LN004", default.lineno,
                    f"mutable default argument in {node.name}()",
                    "default to None (or a tuple/frozenset) and build "
                    "the mutable value inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()


def _public_bindings(tree: ast.Module) -> set[str]:
    """Top-level names a module binds, underscore- and dunder-free."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def _declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        return [
                            el.value for el in node.value.elts
                            if isinstance(el, ast.Constant)
                            and isinstance(el.value, str)
                        ]
    return None


def _check_api_all(location: str, tree: ast.Module,
                   report: DiagnosticReport,
                   ignore: frozenset[str]) -> None:
    if "LN005" in ignore:
        return
    declared = _declared_all(tree)
    severity = rule_registry.get("LN005").default_severity

    def emit(message: str) -> None:
        report.add(Diagnostic(
            rule="LN005", severity=severity, location=location, line=1,
            message=message,
            hint="keep repro.api.__all__ and the facade's imports in "
                 "lockstep",
        ))

    if declared is None:
        emit("facade module declares no __all__")
        return
    bindings = _public_bindings(tree)
    for name in sorted(set(declared) - bindings):
        emit(f"__all__ exports {name!r} but the module never binds it")
    for name in sorted(bindings - set(declared)):
        emit(f"public binding {name!r} is missing from __all__")


class LintEngine:
    """Lints a tree of Python sources against the ``LN###`` rules.

    ``root`` is the directory whose files are linted; locations are
    reported relative to its parent (so linting ``src/repro`` reports
    ``repro/engine/player.py``). ``facade`` names the module checked by
    LN005 (relative to ``root``).
    """

    def __init__(self, root: Path | str | None = None,
                 ignore: Iterable[str] = (),
                 facade: str = "api.py"):
        if root is None:
            import repro

            root = Path(repro.__file__).parent
        self.root = Path(root)
        if not self.root.is_dir():
            raise AnalysisError(f"lint root {self.root} is not a directory")
        self.ignore = frozenset(ignore)
        self.facade = facade

    def files(self) -> list[Path]:
        return sorted(self.root.rglob("*.py"))

    def run(self) -> DiagnosticReport:
        report = DiagnosticReport(subject=f"lint:{self.root.name}")
        for path in self.files():
            self.lint_file(path, report)
        return report

    def lint_file(self, path: Path,
                  report: DiagnosticReport | None = None) -> DiagnosticReport:
        if report is None:
            report = DiagnosticReport(subject=f"lint:{path.name}")
        location = path.relative_to(self.root.parent).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            report.add(Diagnostic(
                rule="LN003", severity=Severity.CRITICAL,
                location=location, line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error",
            ))
            return report
        found = DiagnosticReport()
        _FileLinter(location, found, self.ignore).visit(tree)
        if path.relative_to(self.root).as_posix() == self.facade:
            _check_api_all(location, tree, found, self.ignore)
        suppressions = parse_suppressions(source)
        report.extend(d for d in found
                      if not is_suppressed(d, suppressions))
        return report


def lint_repo(ignore: Iterable[str] = ()) -> DiagnosticReport:
    """Lint the installed ``repro`` package sources."""
    return LintEngine(ignore=ignore).run()


def lint_paths(paths: Iterable[Path | str],
               ignore: Iterable[str] = ()) -> DiagnosticReport:
    """Lint loose files/directories (fixtures, scripts)."""
    report = DiagnosticReport(subject="lint:paths")
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            report.merge(LintEngine(entry, ignore=ignore).run())
        else:
            engine = LintEngine(entry.parent, ignore=ignore)
            engine.lint_file(entry, report)
    return report


__all__ = [
    "LintEngine",
    "SANCTIONED_BUILTIN_RAISES",
    "SIMCLOCK_EVENT_MODULES",
    "lint_paths",
    "lint_repo",
]
