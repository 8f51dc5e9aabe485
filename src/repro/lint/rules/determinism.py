"""Rule ``determinism``: seeded modules stay pure functions of seeds.

The chaos plane's whole contract is that a failing seed reproduces the
failure; the parallel sweeps promise byte-identical output at any
worker count; traces and mutation kernels feed both.  One wallclock
read or unseeded random draw inside those modules breaks every one of
those guarantees — and never shows up as a test failure, only as an
unreproducible soak report months later.

This rule scans the seeded modules (``chaos/``, ``parallel/``,
``traces/``, ``mem/mutation.py``) plus the chaos-adjacent orchestrator
modules the soak drives through injected fault hooks
(``orchestrator/registry.py``, which reads no wallclock, and
``orchestrator/telemetry.py``, whose wallclock is an injectable
``clock`` parameter — ``time.time`` as a *default value* is a
reference, not a call) and flags calls that
introduce non-seeded entropy or wallclock dependence:

* ``time.time`` / ``time.time_ns`` (``time.monotonic`` /
  ``perf_counter`` are allowed for *measuring*, not deciding);
* module-level ``random.*`` draws — constructing an explicit
  ``random.Random(seed)`` is the allowed pattern;
* ``numpy.random.*`` draws — ``default_rng(seed)`` / ``Generator`` /
  ``SeedSequence`` construction is the allowed pattern;
* ``os.urandom``, ``uuid.uuid4``, and anything from ``secrets``.

Calls on *instances* (``self.rng.random()``) are fine: the rule only
fires when the receiver resolves to one of the entropy modules via the
file's own imports.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.lint.core import Finding, Project

RULE_ID = "determinism"

SEEDED_PREFIXES = (
    "src/repro/chaos",
    "src/repro/parallel",
    "src/repro/traces",
    "src/repro/mem/mutation.py",
    "src/repro/orchestrator/registry.py",
    "src/repro/orchestrator/telemetry.py",
)

#: Constructors that *inject* a seed rather than draw entropy.
_SEEDED_CONSTRUCTORS = {
    "random.Random",
    "random.SeedSequence",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
}

_FORBIDDEN_EXACT = {
    "time.time",
    "time.time_ns",
    "os.urandom",
    "uuid.uuid4",
    "uuid.uuid1",
}

_FORBIDDEN_MODULES = ("random", "numpy.random", "secrets")


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local alias → canonical dotted module name."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for item in node.names:
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


def _resolve(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a call target, via the file's imports."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def check(project: Project) -> Iterable[Finding]:
    """Flag wallclock reads and unseeded entropy in seeded modules."""
    findings: List[Finding] = []
    for rel in project.source_files(*SEEDED_PREFIXES):
        tree = project.tree(rel)
        aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve(node.func, aliases)
            if dotted is None:
                continue
            if dotted in _SEEDED_CONSTRUCTORS:
                continue
            flagged = dotted in _FORBIDDEN_EXACT or any(
                dotted.startswith(module + ".")
                for module in _FORBIDDEN_MODULES
            )
            if flagged:
                findings.append(Finding(
                    RULE_ID, rel, node.lineno,
                    f"{dotted}() inside a seeded module breaks "
                    "seed-reproducibility — inject a seeded "
                    "Random/Generator or a clock instead",
                ))
    return findings
