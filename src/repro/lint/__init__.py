"""Project-aware static analysis for the VeCycle reproduction.

Two rule families, both about conventions no type or import can
enforce:

* ``async-safety`` — no blocking calls or dropped coroutines on the
  event loop (:mod:`repro.lint.rules.asyncsafety`);
* ``determinism`` — seeded modules never read wallclock or unseeded
  randomness (:mod:`repro.lint.rules.determinism`).

(The frame tags, metric names and fault vocabulary need no rule: each
is declared once, as a table, typed handles and enums, and a misuse is
an import-time or attribute error.)

Run it as ``vecycle lint`` (or ``make lint``); suppress a deliberate
finding with ``# lint: ignore[rule-id]`` on the flagged line;
rule-authoring notes live in ``docs/static-analysis.md``.
"""

from repro.lint.core import (
    Finding,
    LintReport,
    Project,
    Rule,
    default_root,
    run_lint,
)
from repro.lint.rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "Project",
    "Rule",
    "default_root",
    "rules_by_id",
    "run_lint",
]
