"""The lint engine itself: project model, suppression, report."""

from repro.lint import Finding, Project, Rule, run_lint
from repro.lint.core import suppressed_rules


def _rule_returning(*findings):
    return Rule("demo", "demo rule", lambda project: list(findings))


class TestProjectOverrides:
    def test_override_replaces_file_text(self, repo_root):
        project = Project(repo_root, overrides={"src/repro/cli.py": "x = 1\n"})
        assert project.text("src/repro/cli.py") == "x = 1\n"
        # The real file on disk is untouched and still served elsewhere.
        assert "argparse" in Project(repo_root).text("src/repro/cli.py")

    def test_none_override_hides_the_file(self, repo_root):
        project = Project(
            repo_root, overrides={"src/repro/lint/core.py": None}
        )
        assert not project.exists("src/repro/lint/core.py")
        assert "src/repro/lint/core.py" not in project.source_files(
            "src/repro/lint"
        )

    def test_overrides_can_add_new_files(self, repo_root):
        project = Project(
            repo_root, overrides={"src/repro/runtime/extra.py": "y = 2\n"}
        )
        assert "src/repro/runtime/extra.py" in project.source_files(
            "src/repro/runtime"
        )


class TestSuppressions:
    def test_line_suppression_parses(self):
        scope, rules = suppressed_rules("x = 1  # lint: ignore[determinism]")
        assert scope is False
        assert rules == ("determinism",)

    def test_file_suppression_parses(self):
        scope, rules = suppressed_rules("# lint: ignore-file[async-safety]")
        assert scope is True
        assert rules == ("async-safety",)

    def test_bare_ignore_covers_all_rules(self):
        scope, rules = suppressed_rules("x  # lint: ignore")
        assert scope is False and rules == ()

    def test_non_suppression_lines_return_none(self):
        assert suppressed_rules("x = 1  # just a comment") is None

    def test_suppressed_finding_is_counted_not_reported(self, repo_root):
        rel = "src/repro/demo_suppressed.py"
        project = Project(
            repo_root,
            overrides={rel: "bad = 1  # lint: ignore[demo]\n"},
        )
        finding = Finding("demo", rel, 1, "synthetic defect")
        report = run_lint(project, [_rule_returning(finding)])
        assert report.ok
        assert report.suppressed == 1
        assert report.findings == []

    def test_other_rules_suppression_does_not_apply(self, repo_root):
        rel = "src/repro/demo_other.py"
        project = Project(
            repo_root,
            overrides={rel: "bad = 1  # lint: ignore[other-rule]\n"},
        )
        finding = Finding("demo", rel, 1, "synthetic defect")
        report = run_lint(project, [_rule_returning(finding)])
        assert not report.ok


class TestReport:
    def test_json_shape(self, repo_root):
        finding = Finding("demo", "src/x.py", 3, "synthetic defect")
        report = run_lint(Project(repo_root), [_rule_returning(finding)])
        data = report.to_dict()
        assert data["ok"] is False
        assert data["rules"] == ["demo"]
        (entry,) = data["findings"]
        assert entry == {
            "rule": "demo",
            "path": "src/x.py",
            "line": 3,
            "message": "synthetic defect",
        }

    def test_text_render_mentions_status(self, repo_root):
        report = run_lint(Project(repo_root), [])
        assert "clean" in report.render_text()
