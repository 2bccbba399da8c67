"""Determinism-contamination checkers (DF003/DF004).

DF003 is a forward taint analysis: float literals, wall-clock reads,
``float()`` conversions and ``to_seconds()`` displays are sources;
exact clock arithmetic — ``Rational(...)``, ``advance_to``, the
int-tick ``loop.after_ticks``, ``arrival_time=`` — are sinks.
``as_rational`` and ``Rational.from_float`` are the *sanctioned*
conversion points (the repo's one explicit float→exact boundary), so
flowing through them cleanses the taint. Unknown calls are assumed
clean — the documented intraprocedural under-approximation that keeps
the rule quiet enough to gate on.

DF004 is the single-process race detector for deterministic replay:
iterating a ``set``/``frozenset`` (or ``os.listdir``'s arbitrary-order
list) leaks ``PYTHONHASHSEED`` into any order-sensitive consumer, so
the rule flags iteration and materialization of unordered collections
unless the consumer is order-insensitive (``sorted``, ``min``, ``sum``,
membership folds) — the ``sorted(...)`` wrapper is both the fix and
the suppression.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers import (
    call_method,
    calls_at,
    receiver_text,
    scan_roots,
)
from repro.analysis.dataflow import (
    Analysis,
    FunctionContext,
    dataflow_rule,
)
from repro.obs.events import Severity

#: (receiver, method) pairs that read wall clocks (mirrors the LN001
#: vocabulary; duplicated literally so the two engines stay decoupled).
WALLCLOCK_SOURCES = frozenset({
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})

#: Calls whose result is exact by construction: taint stops here.
SANCTIONED_CONVERSIONS = frozenset({"as_rational", "from_float"})

#: Consumers for which iteration order cannot matter.
ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "min", "max", "sum", "any", "all", "len", "set",
    "frozenset",
})


# ---------------------------------------------------------------------------
# DF003 — float taint reaching exact-rational arithmetic
# ---------------------------------------------------------------------------

def _taint_reason(expr: ast.AST, facts: frozenset) -> str | None:
    """Why this expression carries a float, or None if it is clean."""
    if isinstance(expr, ast.Constant):
        return "float literal" if isinstance(expr.value, float) else None
    if isinstance(expr, ast.Name):
        for name, reason in facts:
            if name == expr.id:
                return reason
        return None
    if isinstance(expr, ast.Call):
        method = call_method(expr)
        recv = receiver_text(expr)
        if method in SANCTIONED_CONVERSIONS:
            return None  # the explicit float→Rational boundary
        if method == "float" and not recv:
            return "float() conversion"
        if (recv, method) in WALLCLOCK_SOURCES or (
                recv == "time" and method.startswith("clock")):
            return f"wall-clock {recv}.{method}()"
        if method == "to_seconds":
            return "to_seconds() display float"
        return None  # unknown calls assumed clean (intraprocedural)
    if isinstance(expr, ast.BinOp):
        return (_taint_reason(expr.left, facts)
                or _taint_reason(expr.right, facts))
    if isinstance(expr, ast.UnaryOp):
        return _taint_reason(expr.operand, facts)
    if isinstance(expr, ast.IfExp):
        return (_taint_reason(expr.body, facts)
                or _taint_reason(expr.orelse, facts))
    return None


class TaintAnalysis(Analysis):
    """Facts: ``(variable, reason)`` — the variable may hold a float."""

    def transfer(self, node, state):
        stmt = node.stmt
        target = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            target, value = stmt.target.id, stmt.value
        elif isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            target, value = stmt.target.id, stmt.value
        if target is None:
            return state
        reason = _taint_reason(value, state)
        facts = {fact for fact in state if fact[0] != target}
        if isinstance(stmt, ast.AugAssign):
            facts |= {fact for fact in state if fact[0] == target}
        if reason is not None:
            facts.add((target, reason))
        return frozenset(facts)


def _sink_args(call: ast.Call) -> tuple[str, list[ast.AST]] | None:
    """(sink description, argument expressions) for sink calls."""
    method = call_method(call)
    recv = receiver_text(call)
    checked: list[ast.AST] = []
    label = None
    if method == "Rational" and not recv:
        label, checked = "Rational(...)", list(call.args)
    elif method == "advance_to":
        label, checked = f"{recv}.advance_to(...)", list(call.args)
    elif method == "after_ticks" and "loop" in recv.lower():
        label, checked = f"{recv}.{method}(...)", list(call.args[:1])
    arrival = [kw.value for kw in call.keywords
               if kw.arg == "arrival_time"]
    if arrival:
        label = label or f"{method}(arrival_time=...)"
        checked = checked + arrival
    if label is None:
        return None
    return label, checked


@dataflow_rule(
    "DF003", "float taint reaches exact-rational arithmetic",
    Severity.ERROR,
    "A float literal, wall-clock read, float() conversion or "
    "to_seconds() display value flows into Rational(), clock "
    "advance_to(), loop.after_ticks() or arrival_time=; "
    "exact time is the determinism contract and floats drift it.")
def check_float_taint(ctx: FunctionContext):
    diagnostics = []
    states = ctx.solved(TaintAnalysis())
    for node in ctx.cfg.statement_nodes():
        facts = states[node.node_id]
        for call in calls_at(node):
            sink = _sink_args(call)
            if sink is None:
                continue
            label, checked = sink
            for arg in checked:
                reason = _taint_reason(arg, facts)
                if reason is not None:
                    diagnostics.append(ctx.diagnostic(
                        "DF003", call.lineno,
                        f"{reason} reaches exact-rational sink {label}",
                        "convert explicitly at the boundary with "
                        "as_rational()/Rational.from_float(), or keep "
                        "the value exact end to end",
                    ))
                    break
    return diagnostics


# ---------------------------------------------------------------------------
# DF004 — iteration over unordered collections
# ---------------------------------------------------------------------------

def _unordered_reason(expr: ast.AST, facts: frozenset,
                      class_set_attrs: frozenset[str]) -> str | None:
    """Why iterating this expression has nondeterministic order."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(expr, ast.Name):
        for name, reason in facts:
            if name == expr.id:
                return reason
        return None
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self" \
                and expr.attr in class_set_attrs:
            return f"set attribute self.{expr.attr}"
        return None
    if isinstance(expr, ast.Call):
        method = call_method(expr)
        recv = receiver_text(expr)
        if method in ("set", "frozenset") and not recv:
            return f"{method}()"
        if (recv, method) == ("os", "listdir"):
            return "os.listdir() (arbitrary order)"
        if method in ("union", "difference", "intersection",
                      "symmetric_difference"):
            inner = _unordered_reason(expr.func.value, facts,
                                      class_set_attrs)
            if inner is not None:
                return inner
        return None
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_unordered_reason(expr.left, facts, class_set_attrs)
                or _unordered_reason(expr.right, facts, class_set_attrs))
    return None


class SetAnalysis(Analysis):
    """Facts: ``(variable, reason)`` — the variable may be unordered."""

    def __init__(self, class_set_attrs: frozenset[str] = frozenset()):
        self.class_set_attrs = class_set_attrs

    def transfer(self, node, state):
        stmt = node.stmt
        target = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            target, value = stmt.target.id, stmt.value
        if target is None:
            return state
        reason = _unordered_reason(value, state, self.class_set_attrs)
        facts = {fact for fact in state if fact[0] != target}
        if reason is not None:
            facts.add((target, reason))
        return frozenset(facts)


def _consumed_order_insensitively(comp: ast.AST,
                                  parents: dict) -> bool:
    parent = parents.get(comp)
    if isinstance(parent, ast.Call) and comp in parent.args:
        if call_method(parent) in ORDER_INSENSITIVE_CONSUMERS:
            return True
    return False


@dataflow_rule(
    "DF004", "iteration over an unordered collection", Severity.ERROR,
    "A for-loop, comprehension or list()/tuple()/join() materializes "
    "the order of a set/frozenset or os.listdir(); that order leaks "
    "PYTHONHASHSEED (or the filesystem) into replay-sensitive state. "
    "The single-process race detector for deterministic replay.")
def check_unordered_iteration(ctx: FunctionContext):
    class_set_attrs = (ctx.class_info.set_attrs
                       if ctx.class_info is not None else frozenset())
    diagnostics = []
    states = ctx.solved(SetAnalysis(class_set_attrs))

    def emit(line: int, construct: str, reason: str) -> None:
        diagnostics.append(ctx.diagnostic(
            "DF004", line,
            f"{construct} iterates {reason}, whose order is "
            "nondeterministic across processes",
            "wrap the iterable in sorted(...) — or consume it "
            "order-insensitively",
        ))

    for node in ctx.cfg.statement_nodes():
        facts = states[node.node_id]

        def reason_of(expr: ast.AST) -> str | None:
            return _unordered_reason(expr, facts, class_set_attrs)

        if isinstance(node.stmt, (ast.For, ast.AsyncFor)) \
                and node.label == "loop-head":
            reason = reason_of(node.stmt.iter)
            if reason is not None:
                emit(node.stmt.iter.lineno, "for-loop", reason)
        for root in scan_roots(node):
            parents = {
                child: parent
                for parent in ast.walk(root)
                for child in ast.iter_child_nodes(parent)
            }
            for inner in ast.walk(root):
                if isinstance(inner, (ast.ListComp, ast.DictComp,
                                      ast.GeneratorExp)):
                    for generator in inner.generators:
                        reason = reason_of(generator.iter)
                        if reason is not None and \
                                not _consumed_order_insensitively(
                                    inner, parents):
                            emit(generator.iter.lineno, "comprehension",
                                 reason)
                elif isinstance(inner, ast.Call):
                    method = call_method(inner)
                    if method in ("list", "tuple") \
                            and not receiver_text(inner) \
                            and inner.args:
                        reason = reason_of(inner.args[0])
                        if reason is not None:
                            emit(inner.lineno, f"{method}()", reason)
                    elif method == "join" and inner.args:
                        reason = reason_of(inner.args[0])
                        if reason is not None:
                            emit(inner.lineno, "str.join()", reason)
    return diagnostics
