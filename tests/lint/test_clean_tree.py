"""Meta-tests: the committed tree lints clean, mutations exit 1.

The first class runs the real CLI against the real tree — the same
invocation CI uses — and the second copies the tree to a sandbox,
applies each regression-class mutation the suite was built to catch,
and asserts the exit status flips to 1.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, Project, run_lint
from repro.lint.cli import run as lint_run


class TestCommittedTree:
    def test_run_lint_is_clean(self, repo_root):
        report = run_lint(Project(repo_root), ALL_RULES)
        assert report.ok, report.render_text()

    def test_cli_exits_zero(self, repo_root, capsys):
        assert lint_run(["--root", str(repo_root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_json_report(self, repo_root, capsys):
        assert lint_run(["--root", str(repo_root), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert set(data["rules"]) == {rule.id for rule in ALL_RULES}

    def test_vecycle_lint_subcommand(self, repo_root):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint",
             "--root", str(repo_root), "--format", "json"],
            capture_output=True,
            text=True,
            cwd=repo_root,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True


@pytest.fixture(scope="module")
def tree_copy(tmp_path_factory):
    """A disposable on-disk copy of the repo the CLI can be run against."""
    root = Path(__file__).resolve().parents[2]
    copy = tmp_path_factory.mktemp("lint-tree") / "repo"
    shutil.copytree(
        root,
        copy,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.pyc"
        ),
    )
    return copy


def _edit(tree: Path, rel: str, old: str, new: str) -> None:
    path = tree / rel
    text = path.read_text()
    assert old in text, f"{old!r} not found in {rel}"
    path.write_text(text.replace(old, new))


def _restore(tree: Path, rel: str, original: str) -> None:
    (tree / rel).write_text(original)


class TestMutationsExitOne:
    """A regression a surviving rule exists for must flip the exit status."""

    def test_blocking_sleep_in_runtime_async_def_exits_one(
        self, tree_copy, capsys
    ):
        rel = "src/repro/runtime/daemon.py"
        original = (tree_copy / rel).read_text()
        try:
            _edit(
                tree_copy, rel,
                "        self._count(names.DAEMON_HEARTBEATS)",
                "        time.sleep(0.5)\n"
                "        self._count(names.DAEMON_HEARTBEATS)",
            )
            assert lint_run(["--root", str(tree_copy)]) == 1
            assert "time.sleep" in capsys.readouterr().out
        finally:
            _restore(tree_copy, rel, original)

    def test_unmutated_copy_exits_zero(self, tree_copy, capsys):
        assert lint_run(["--root", str(tree_copy)]) == 0
        capsys.readouterr()
