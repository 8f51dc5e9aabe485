"""The lint engine: project model, findings, suppressions.

``repro.lint`` is a project-aware static-analysis suite: its rules know
this codebase's conventions (seeded determinism, async-only I/O paths)
and check them from the AST, before any test or chaos soak runs.

The engine is deliberately small:

* a :class:`Project` wraps the repository root and serves file text and
  parsed ASTs, with an ``overrides`` map so tests can lint a mutated
  tree without touching disk;
* a :class:`Finding` is one defect: rule, path, line, message;
* suppression is per line — ``# lint: ignore[rule-id]`` on the flagged
  line, or ``# lint: ignore-file[rule-id]`` anywhere in the file;
  every finding that is not suppressed fails the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?P<scope>-file)?(?:\[(?P<rules>[a-z0-9_,\- ]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One defect found by one rule."""

    rule: str
    path: str
    line: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form of the finding (the CI report entry)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human-readable form: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Project:
    """A lintable tree: the repo root plus optional text overrides.

    ``overrides`` maps repo-relative POSIX paths to replacement text
    (``None`` hides the file entirely); tests use it to assert that a
    deleted dispatch arm or a renamed metric literal turns into a
    finding without writing to disk.
    """

    def __init__(
        self,
        root: Path | str,
        overrides: Optional[Dict[str, Optional[str]]] = None,
    ) -> None:
        self.root = Path(root)
        self.overrides: Dict[str, Optional[str]] = dict(overrides or {})
        self._text_cache: Dict[str, Optional[str]] = {}
        self._tree_cache: Dict[str, ast.Module] = {}

    def try_text(self, rel: str) -> Optional[str]:
        """File text, or None if absent (or hidden by an override)."""
        if rel in self.overrides:
            return self.overrides[rel]
        cached = self._text_cache.get(rel, False)
        if cached is not False:
            return cached
        path = self.root / rel
        text = path.read_text() if path.is_file() else None
        self._text_cache[rel] = text
        return text

    def text(self, rel: str) -> str:
        """File text; raises FileNotFoundError when absent."""
        text = self.try_text(rel)
        if text is None:
            raise FileNotFoundError(f"{rel} not found under {self.root}")
        return text

    def tree(self, rel: str) -> ast.Module:
        """Parsed AST of ``rel`` (cached; SyntaxError propagates)."""
        if rel not in self._tree_cache or rel in self.overrides:
            self._tree_cache[rel] = ast.parse(self.text(rel), filename=rel)
        return self._tree_cache[rel]

    def exists(self, rel: str) -> bool:
        """True when ``rel`` is present (and not hidden by an override)."""
        return self.try_text(rel) is not None

    def source_files(self, *prefixes: str) -> List[str]:
        """Repo-relative ``.py`` files under ``prefixes``, overrides included."""
        found = set()
        for prefix in prefixes:
            base = self.root / prefix
            if base.is_file():
                found.add(prefix)
                continue
            if base.is_dir():
                for path in base.rglob("*.py"):
                    found.add(path.relative_to(self.root).as_posix())
        for rel, text in self.overrides.items():
            matches = any(
                rel == p or rel.startswith(p.rstrip("/") + "/")
                for p in prefixes
            )
            if matches and rel.endswith(".py"):
                if text is None:
                    found.discard(rel)
                else:
                    found.add(rel)
        return sorted(found)


@dataclass(frozen=True)
class Rule:
    """One rule family: an id (used in suppressions), doc, and checker."""

    id: str
    title: str
    check: Callable[[Project], Iterable[Finding]]


def suppressed_rules(line_text: str) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    """Parse a suppression comment on ``line_text``.

    Returns ``(file_scope, rule_ids)`` — empty ``rule_ids`` means every
    rule — or None when the line carries no suppression.
    """
    match = _SUPPRESS_RE.search(line_text)
    if match is None:
        return None
    rules = tuple(
        part.strip()
        for part in (match.group("rules") or "").split(",")
        if part.strip()
    )
    return (match.group("scope") is not None, rules)


def _is_suppressed(project: Project, finding: Finding) -> bool:
    text = project.try_text(finding.path)
    if text is None:
        return False
    lines = text.splitlines()
    for number, line_text in enumerate(lines, start=1):
        parsed = suppressed_rules(line_text)
        if parsed is None:
            continue
        file_scope, rules = parsed
        applies = not rules or finding.rule in rules
        if not applies:
            continue
        if file_scope or number == finding.line:
            return True
    return False


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no unsuppressed finding remains."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form of the whole report (the CI artifact body)."""
        return {
            "ok": self.ok,
            "rules": self.rules_run,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
        }

    def render_text(self) -> str:
        """Human-readable listing plus a one-line status summary."""
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
        status = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        lines.append(
            f"vecycle lint: {status} "
            f"({len(self.rules_run)} rules, {self.suppressed} suppressed)"
        )
        return "\n".join(lines)


def run_lint(project: Project, rules: Sequence[Rule]) -> LintReport:
    """Run ``rules`` over ``project``; suppressed findings are counted,
    every other one is reported and fails the run.
    """
    report = LintReport(rules_run=[rule.id for rule in rules])
    for rule in rules:
        for finding in rule.check(project):
            if _is_suppressed(project, finding):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return report


def default_root() -> Path:
    """The repository root this installed ``repro`` package came from."""
    package_root = Path(__file__).resolve().parents[3]
    if (package_root / "src" / "repro").is_dir():
        return package_root
    return Path.cwd()
