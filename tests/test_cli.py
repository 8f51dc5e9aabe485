"""Tests for the command-line interface."""

import collections
import json
import os
import subprocess
import sys

import pytest

import repro
from repro import cli
from repro.cli import build_parser, main
from repro.obs import get_registry, get_tracer, span


@pytest.fixture(autouse=True)
def clean_obs_state():
    """CLI runs toggle the global tracer; keep tests independent."""
    yield
    tracer = get_tracer()
    tracer.disable()
    tracer.reset()
    get_registry().reset()


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("table1", "fig1", "fig3", "fig5", "fig6", "fig7",
                        "fig8", "rates", "migrate", "runtime", "postcopy",
                        "consolidate", "gang", "summary", "obs"):
            assert command in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_subcommand_accepts_obs_flags(self):
        parser = build_parser()
        for command in ("table1", "fig8", "migrate", "runtime"):
            args = parser.parse_args(
                [command, "--trace-out", "/tmp/t.json", "--trace-summary", "-v"]
            )
            assert args.trace_out == "/tmp/t.json"
            assert args.trace_summary and args.verbose == 1

    def test_obs_reads_a_trace_and_records_none(self):
        parser = build_parser()
        args = parser.parse_args(["obs", "run.jsonl"])
        assert (args.run, args.out) == ("run.jsonl", None)
        with pytest.raises(SystemExit):
            parser.parse_args(["obs", "run.jsonl", "--trace-out", "t.json"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Server A" in out and "8 GiB" in out.replace("     8 GiB", "8 GiB")

    def test_rates(self, capsys):
        assert main(["rates"]) == 0
        assert "md5" in capsys.readouterr().out

    def test_migrate_vecycle(self, capsys):
        assert main(["migrate", "--size-mib", "32", "--strategy", "vecycle"]) == 0
        out = capsys.readouterr().out
        assert "similarity to checkpoint" in out

    def test_migrate_qemu_no_checkpoint_line(self, capsys):
        assert main(["migrate", "--size-mib", "32", "--strategy", "qemu"]) == 0
        out = capsys.readouterr().out
        assert "similarity to checkpoint" not in out

    def test_migrate_with_updates(self, capsys):
        assert main([
            "migrate", "--size-mib", "32", "--strategy", "vecycle",
            "--updates-percent", "50",
        ]) == 0
        assert "pages:" in capsys.readouterr().out

    def test_runtime_live_migration(self, capsys):
        assert main(["runtime", "--size-mib", "4", "--strategy", "vecycle"]) == 0
        out = capsys.readouterr().out
        assert "-> completed" in out
        assert "cross-validation" in out
        assert "delta=0" in out  # exact payload agreement

    def test_runtime_with_disconnect_injection(self, capsys):
        assert main([
            "runtime", "--size-mib", "4", "--strategy", "qemu",
            "--inject-disconnect", "50", "--link", "none",
        ]) == 0
        out = capsys.readouterr().out
        assert "retries=1" in out

    def test_fig6_custom_sizes(self, capsys):
        assert main(["fig6", "--sizes", "64,128"]) == 0
        out = capsys.readouterr().out
        assert "64Mi" in out and "128Mi" in out

    def test_fig8_short(self, capsys):
        assert main(["fig8", "--epochs", "144"]) == 0
        assert "vecycle" in capsys.readouterr().out

    def test_fig1_short(self, capsys):
        # Uses the full 6-machine panel at reduced epochs; slowest CLI
        # test but still seconds.
        assert main(["fig1", "--epochs", "48"]) == 0
        assert "Crawler A" in capsys.readouterr().out

    def test_fig4_short(self, capsys):
        assert main(["fig4", "--epochs", "48"]) == 0
        assert "dup mean" in capsys.readouterr().out

    def test_fig3_worked_example(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "relocated" in out and "hashes+dedup" in out

    def test_fig2_with_plot(self, capsys):
        assert main(["fig2", "--epochs", "96", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "hours between snapshots" in out  # the ASCII chart

    def test_postcopy(self, capsys):
        assert main(["postcopy", "--size-mib", "64"]) == 0
        out = capsys.readouterr().out
        assert "fill=" in out and "faults=" in out

    def test_gang(self, capsys):
        assert main(["gang", "--vms", "3", "--shared", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "cross-VM dedup" in out
        assert "merged checkpoints" in out

    def test_consolidate_small(self, capsys):
        assert main(["consolidate", "--vms", "2", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "vecycle+dedup" in out and "migrations" in out

    def test_summary_quick(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestObservabilityFlags:
    def test_runtime_writes_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main([
            "runtime", "--size-mib", "4", "--strategy", "vecycle",
            "--trace-out", str(path),
        ]) == 0
        assert "-> completed" in capsys.readouterr().out
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"runtime.migrate", "connect", "announce", "round",
                "daemon.session"} <= names
        assert "runtime.migrations.completed" in trace["otherData"]["metrics"]

    def test_trace_summary_goes_to_stderr(self, capsys):
        assert main([
            "migrate", "--size-mib", "32", "--strategy", "vecycle",
            "--trace-summary",
        ]) == 0
        captured = capsys.readouterr()
        assert "similarity to checkpoint" in captured.out
        assert "migration.simulate" in captured.err
        assert "migration.simulate" not in captured.out

    def test_trace_out_is_written_when_the_command_raises(
        self, monkeypatch, tmp_path
    ):
        def failing(args):
            with span("doomed.command"):
                raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_table1", failing)
        path = tmp_path / "crash.json"
        with pytest.raises(RuntimeError, match="boom"):
            main(["table1", "--trace-out", str(path)])
        trace = json.loads(path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in spans] == ["doomed.command"]
        assert spans[0]["args"]["error"] == "RuntimeError"

    def test_repro_trace_and_trace_out_write_the_same_file(self, tmp_path):
        command = ["migrate", "--size-mib", "32", "--strategy", "vecycle"]
        env_path = tmp_path / "a.jsonl"
        flag_path = tmp_path / "b.jsonl"
        env = dict(os.environ, REPRO_TRACE=str(env_path), PYTHONPATH=(
            os.path.dirname(os.path.dirname(repro.__file__))
        ))
        # A child process, so that its atexit hooks run.
        subprocess.run(
            [sys.executable, "-m", "repro", *command],
            env=env, check=True, capture_output=True,
        )
        assert main([*command, "--trace-out", str(flag_path)]) == 0

        def kinds(path):
            with open(path) as handle:
                return collections.Counter(
                    json.loads(line)["kind"] for line in handle
                )

        from_env, from_flag = kinds(env_path), kinds(flag_path)
        assert from_env == from_flag
        # A trace is spans and one metrics line, whatever the command.
        assert set(from_env) == {"span", "metrics"}
        assert from_env["metrics"] == 1

    def test_obs_converts_jsonl_to_chrome(self, capsys, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.json"
        assert main([
            "runtime", "--size-mib", "4", "--strategy", "vecycle",
            "--trace-out", str(jsonl),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "loaded" in out and "runtime.migrate  1x" in out
        assert not chrome.exists()
        assert main(["obs", str(jsonl), str(chrome)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {chrome}" in out and "runtime.migrate  1x" in out
        names = {
            e["name"] for e in json.loads(chrome.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"runtime.migrate", "daemon.session"} <= names

    def test_obs_keeps_the_runs_metrics(self, capsys, tmp_path):
        run = tmp_path / "run.jsonl"
        metrics = {"runtime.retries": {"type": "counter", "value": 2.0}}
        lines = [
            {"kind": "span", "id": 1, "parent": 0, "name": "runtime.migrate",
             "start_s": 0.0, "duration_s": 0.5},
            {"kind": "metrics", "metrics": metrics},
        ]
        run.write_text("".join(json.dumps(line) + "\n" for line in lines))
        chrome, jsonl = tmp_path / "out.json", tmp_path / "out.jsonl"
        assert main(["obs", str(run), str(chrome)]) == 0
        assert json.loads(chrome.read_text())["otherData"]["metrics"] == metrics
        assert main(["obs", str(run), str(jsonl)]) == 0
        written = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [line for line in written if line["kind"] == "metrics"] == [
            {"kind": "metrics", "metrics": metrics}
        ]

    def test_verbose_logs_stay_off_stdout(self, capsys):
        assert main(["fig8", "--epochs", "144", "-v"]) == 0
        captured = capsys.readouterr()
        assert "vecycle" in captured.out
        assert "replaying VDI schedule" in captured.err
        assert "replaying VDI schedule" not in captured.out
