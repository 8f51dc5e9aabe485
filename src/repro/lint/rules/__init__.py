"""The rule families of the ``repro.lint`` suite.

Each module exposes ``RULE_ID`` and ``check(project) -> findings``;
:data:`ALL_RULES` is the registry the CLI and tests iterate.
"""

from __future__ import annotations

from typing import Tuple

from repro.lint.core import Rule
from repro.lint.rules import asyncsafety, determinism

ALL_RULES: Tuple[Rule, ...] = (
    Rule(
        asyncsafety.RULE_ID,
        "no blocking calls or dropped coroutines on the event loop",
        asyncsafety.check,
    ),
    Rule(
        determinism.RULE_ID,
        "seeded modules stay pure functions of their seeds",
        determinism.check,
    ),
)


def rules_by_id(ids) -> Tuple[Rule, ...]:
    """The subset of :data:`ALL_RULES` matching ``ids`` (order kept)."""
    wanted = set(ids)
    unknown = wanted - {rule.id for rule in ALL_RULES}
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(r.id for r in ALL_RULES)})"
        )
    return tuple(rule for rule in ALL_RULES if rule.id in wanted)
