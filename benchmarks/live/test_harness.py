"""Smoke test of the benchmark harness itself, on ``--quick`` sizes.

Not part of tier-1 (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest --noconftest benchmarks/live/test_harness.py -q

``--noconftest`` keeps ``benchmarks/conftest.py`` out of the session: its
end-of-session hook rewrites ``BENCH_observability.json``.  About a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.live.spec import load_spec

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "live" / "run.py")]
SPEC = load_spec()


def run_suite(out: Path, *args: str) -> dict:
    done = subprocess.run(
        [*RUN, "--quick", "--out", str(out), "--out-dir", str(out.parent), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "seed1.json"
    return run_suite(out, "--seed", "1", "--trace")


def wire_ratios(report: dict) -> dict:
    return {
        name: entry["end_to_end"]["metrics"]["wire_bytes_per_guest_byte"]["value"]
        for name, entry in report["workloads"].items()
    }


def test_every_named_metric_is_present_and_finite(traced_report):
    assert set(traced_report["workloads"]) == set(SPEC.workloads)
    for name, entry in traced_report["workloads"].items():
        metrics = entry["end_to_end"]["metrics"]
        for metric in SPEC.report_metrics:
            value = metrics[metric.name]["value"]
            if metric.name == "restart_recover_s" and name != "durable_half":
                assert value is None
            else:
                assert math.isfinite(value), (name, metric.name, value)
        assert metrics["failed_fraction"]["value"] == 0
        layers = entry["per_layer"]["metrics"]
        for metric in SPEC.per_layer:
            value = layers[metric.name]["value"]
            note = entry["per_layer"]["notes"].get(metric.name)
            assert value is not None and math.isfinite(value), (
                name, metric.name, note,
            )
        assert layers["pagestore.page_evictions"]["value"] == 0
        assert Path(entry["per_layer"]["trace_file"]).is_file()


def test_wire_bytes_repeat_for_a_seed_and_move_with_it(traced_report, tmp_path):
    again = run_suite(tmp_path / "again.json", "--seed", "1")
    other = run_suite(tmp_path / "other.json", "--seed", "2")
    assert wire_ratios(again) == wire_ratios(traced_report)
    assert wire_ratios(other) != wire_ratios(traced_report)


def test_a_corrupted_expectation_flips_the_exit_status():
    command = [*RUN, "--workload", "idle_return", "--quick", "--seed", "1"]
    good = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    bad = subprocess.run([*command, "--corrupt-expectation"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=False)
    assert good.returncode == 0
    assert json.loads(good.stdout.splitlines()[-1])["correct"] is True
    assert bad.returncode == 1
    result = json.loads(bad.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]
