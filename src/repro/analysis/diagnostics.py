"""The shared diagnostic core of the static verification layer.

Every analysis engine — the media-graph checker
(:mod:`repro.analysis.graph`), the codebase linter
(:mod:`repro.analysis.lint`) and the dataflow engine
(:mod:`repro.analysis.dataflow`) — reports through one vocabulary: a
:class:`Diagnostic` carries a stable rule id, a severity from the same
ladder the flight recorder uses, a location (an object path for graph
findings, ``file:line`` for source findings), a message and a fix hint.
A :class:`DiagnosticReport` aggregates them and renders text or JSON
deterministically, so same-input runs export byte-identically — the
repo-wide determinism contract extends to its own tooling.

Rule id convention: ``MG###`` for media-graph rules, ``LN###`` for lint
rules, ``DF###`` for dataflow rules. Accepting a finding: the one
committed way is an inline ``# repro: suppress RULE — reason`` comment
on the flagged line (or the line above), parsed here and honoured by
both source engines; the reason is mandatory. Every engine also takes
an ``ignore=`` set of rule ids for a single run. A finding is never
accepted by editing a checker.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import AnalysisError
from repro.obs.events import Severity


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation at a location.

    ``location`` is a stable path — ``multimedia:trailer/video1`` for a
    graph finding, ``src/repro/engine/player.py`` (with ``line``) for a
    lint finding. ``hint`` says how to fix or suppress.
    """

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str | None = None
    line: int | None = None

    def __post_init__(self) -> None:
        if not self.rule:
            raise AnalysisError("diagnostic needs a rule id")
        if not isinstance(self.severity, Severity):
            object.__setattr__(self, "severity", Severity.coerce(self.severity))

    @property
    def is_error(self) -> bool:
        return self.severity >= Severity.ERROR

    def where(self) -> str:
        """``location`` or ``location:line`` when a line is known."""
        if self.line is None:
            return self.location
        return f"{self.location}:{self.line}"

    def export(self) -> dict:
        """A JSON-safe dict with deterministically ordered keys."""
        return {
            "rule": self.rule,
            "severity": self.severity.name,
            "location": self.location,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }

    def __str__(self) -> str:
        text = (
            f"{self.where()}: {self.severity.name.lower()} "
            f"[{self.rule}] {self.message}"
        )
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


class DiagnosticReport:
    """An ordered collection of diagnostics with reporters.

    Ordering is deterministic: rows sort by (location, line, rule,
    message) regardless of rule execution order, so two runs over the
    same input render byte-identically.
    """

    def __init__(self, diagnostics: Iterable[Diagnostic] = (),
                 subject: str = ""):
        self.subject = subject
        self._diagnostics: list[Diagnostic] = list(diagnostics)

    # -- collection ---------------------------------------------------------

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self._diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self._diagnostics.extend(diagnostics)

    def merge(self, other: "DiagnosticReport") -> "DiagnosticReport":
        self._diagnostics.extend(other._diagnostics)
        return self

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """All findings in deterministic order."""
        return sorted(
            self._diagnostics,
            key=lambda d: (d.location, d.line or 0, d.rule, d.message),
        )

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def warnings(self) -> list[Diagnostic]:
        return [
            d for d in self.diagnostics
            if Severity.WARNING <= d.severity < Severity.ERROR
        ]

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def rules(self) -> list[str]:
        """Distinct rule ids that fired, sorted."""
        return sorted({d.rule for d in self._diagnostics})

    @property
    def ok(self) -> bool:
        """True when no ERROR-or-worse diagnostic is present."""
        return not any(d.is_error for d in self._diagnostics)

    # -- reporters ----------------------------------------------------------

    def render_text(self) -> str:
        """Human-readable listing, one line per finding, plus a footer."""
        lines = [str(d) for d in self.diagnostics]
        errors = len(self.errors())
        warnings = len(self.warnings())
        subject = f"{self.subject}: " if self.subject else ""
        lines.append(
            f"{subject}{len(self._diagnostics)} finding(s), "
            f"{errors} error(s), {warnings} warning(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Deterministic JSON export (sorted keys, stable row order)."""
        return json.dumps(
            {
                "subject": self.subject,
                "ok": self.ok,
                "findings": [d.export() for d in self.diagnostics],
                "counts": {
                    "total": len(self._diagnostics),
                    "errors": len(self.errors()),
                    "warnings": len(self.warnings()),
                },
            },
            sort_keys=True,
            indent=2,
        )

    def __repr__(self) -> str:
        return (
            f"DiagnosticReport({self.subject or 'unnamed'}: "
            f"{len(self._diagnostics)} findings, "
            f"{len(self.errors())} errors)"
        )


@dataclass(frozen=True)
class RuleInfo:
    """Registry row describing one rule (for docs and ``--list-rules``)."""

    rule_id: str
    title: str
    default_severity: Severity
    engine: str  # "graph" or "lint"
    doc: str = ""


class RuleRegistry:
    """Rule metadata registry, keyed by rule id.

    The engines register their rules here at import time; the CLI's
    ``--list-rules`` and the DESIGN.md table render from it, so rule
    ids, severities and one-line docs live in exactly one place.
    """

    def __init__(self) -> None:
        self._rules: dict[str, RuleInfo] = {}

    def register(self, rule_id: str, title: str,
                 default_severity: Severity, engine: str,
                 doc: str = "") -> RuleInfo:
        if rule_id in self._rules:
            raise AnalysisError(f"rule {rule_id!r} already registered")
        info = RuleInfo(rule_id, title, default_severity, engine, doc)
        self._rules[rule_id] = info
        return info

    def get(self, rule_id: str) -> RuleInfo:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise AnalysisError(
                f"unknown rule {rule_id!r}; registered: "
                f"{', '.join(sorted(self._rules)) or '(none)'}"
            ) from None

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def ids(self, engine: str | None = None) -> list[str]:
        return sorted(
            rule_id for rule_id, info in self._rules.items()
            if engine is None or info.engine == engine
        )

    def table(self) -> list[tuple[str, str, str, str]]:
        """(id, engine, severity, title) rows for rendering."""
        return [
            (info.rule_id, info.engine, info.default_severity.name,
             info.title)
            for info in (self._rules[i] for i in self.ids())
        ]


#: Process-wide registry of analysis rules.
rule_registry = RuleRegistry()


#: Inline suppression grammar. The reason is mandatory: a silenced
#: finding with no recorded justification is just a hidden bug.
SUPPRESS_PATTERN = re.compile(
    r"#\s*repro:\s*suppress\s+(?P<rules>[A-Z]{2}\d{3}"
    r"(?:\s*,\s*[A-Z]{2}\d{3})*)\s*(?:—|--|-)\s*(?P<reason>\S.*)"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: suppress`` comment."""

    line: int
    rules: frozenset[str]
    reason: str


def parse_suppressions(source: str) -> list[Suppression]:
    """All suppression comments in a source file, with their reasons.

    A comment with no reason text after the dash is not a suppression
    — the grammar requires the justification.
    """
    found = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = SUPPRESS_PATTERN.search(text)
        if match:
            rules = frozenset(
                r.strip() for r in match.group("rules").split(","))
            found.append(Suppression(lineno, rules,
                                     match.group("reason").strip()))
    return found


def is_suppressed(diagnostic: Diagnostic,
                  suppressions: Iterable[Suppression]) -> bool:
    """Trailing comments cover their own line; standalone comments
    cover the line below."""
    line = diagnostic.line or 0
    return any(
        diagnostic.rule in s.rules and s.line in (line, line - 1)
        for s in suppressions
    )
