"""The ``vecycle lint`` entry point.

Runs the project-aware rule families over the repository and prints
either a human-readable listing or a machine-readable JSON report (what
CI uploads as an artifact).  Exit status is 0 when no finding remains,
1 otherwise — suppressed findings never fail the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.core import Project, default_root, run_lint
from repro.lint.rules import ALL_RULES, rules_by_id


def build_parser() -> argparse.ArgumentParser:
    """The ``vecycle lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="vecycle lint",
        description="Project-aware static analysis for the VeCycle tree.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root to lint (default: auto-detected)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is what CI archives)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule families and exit",
    )
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the exit status (0 clean, 1 findings)."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:<14s} {rule.title}")
        return 0
    root = args.root if args.root is not None else default_root()
    if not (root / "src" / "repro").is_dir():
        print(f"error: {root} does not look like the repository root "
              "(no src/repro)", file=sys.stderr)
        return 2
    rules = ALL_RULES
    if args.rules:
        try:
            rules = rules_by_id(
                part.strip() for part in args.rules.split(",") if part.strip()
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = run_lint(Project(root), rules)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def main() -> None:  # pragma: no cover - thin wrapper
    """Console entry point: exits the process with :func:`run`'s status."""
    raise SystemExit(run())
