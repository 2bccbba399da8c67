"""Static verification layer: graph checker, linter and dataflow engine.

Three engines share one diagnostic vocabulary
(:mod:`repro.analysis.diagnostics`):

* the **media-graph checker** (:mod:`repro.analysis.graph`) verifies
  interpretation/derivation/composition graphs without expanding them —
  cycles, dangling inputs, time-system and kind mismatches, timeline
  conflicts, and the §4.2 store-or-expand decision priced statically;
* the **codebase linter** (:mod:`repro.analysis.lint`) walks the
  library's own sources enforcing the repo's determinism and
  error-taxonomy contracts, one statement at a time;
* the **dataflow engine** (:mod:`repro.analysis.dataflow`) builds
  per-function CFGs (:mod:`repro.analysis.cfg`), runs a monotone
  fixpoint solver over them (:mod:`repro.analysis.lattice`) and checks
  *path* properties the flat linter cannot: pin/unpin and WAL
  commit protocols, float taint into exact-rational time, unordered
  iteration, swallowed crashes.

``python -m repro.tools.check --all`` runs all three; it is the CI gate.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    RuleInfo,
    RuleRegistry,
    rule_registry,
)
from repro.analysis.graph import (
    PLAN_POLICIES,
    STRUCTURAL_RULES,
    GraphChecker,
    GraphContext,
    GraphWalker,
    Placement,
    blocking_diagnostics,
    check_media_graph,
    static_bytes,
    static_duration,
    static_rate,
    static_time_system,
)
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import (
    Analysis,
    DataflowEngine,
    check_paths,
    check_repo,
    sarif_report,
    solve,
)
from repro.analysis import checkers  # noqa: F401  (DF rule registration)
from repro.analysis.lint import LintEngine, lint_paths, lint_repo
from repro.analysis.rules.feasibility import (
    DerivationVerdict,
    classify_derivations,
)

__all__ = [
    "Analysis",
    "CFG",
    "DataflowEngine",
    "Diagnostic",
    "DiagnosticReport",
    "DerivationVerdict",
    "GraphChecker",
    "GraphContext",
    "GraphWalker",
    "LintEngine",
    "build_cfg",
    "check_paths",
    "check_repo",
    "sarif_report",
    "solve",
    "PLAN_POLICIES",
    "Placement",
    "RuleInfo",
    "RuleRegistry",
    "STRUCTURAL_RULES",
    "blocking_diagnostics",
    "check_media_graph",
    "classify_derivations",
    "lint_paths",
    "lint_repo",
    "rule_registry",
    "static_bytes",
    "static_duration",
    "static_rate",
    "static_time_system",
]
