"""The metric-name handles: what the deleted ``metric-names`` rule
checked, kept as plain tests where a check still means something.

A typo or a kind mismatch at an emission site is now an import or
attribute error, so nothing scans call sites.  What is left to check is
the declarations themselves, the docs block generated from them, and —
in a subprocess, so the process-wide registry contains exactly that
run's instruments — that a real cluster run emits nothing undeclared.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.obs import names
from repro.obs.metrics import MetricsRegistry

ROOT = Path(__file__).resolve().parents[2]

_DRIVER = """
import json
from repro.experiments.live_cluster import run
from repro.obs.metrics import get_registry
from repro.obs.names import undeclared

run(hosts=2, migrations=2, num_pages=256, seed=7)
emitted = sorted(get_registry().snapshot())
print(json.dumps({
    "emitted": emitted,
    "undeclared": sorted(undeclared(emitted)),
}))
"""


def test_live_orchestrator_run_emits_only_declared_names():
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout.splitlines()[-1])
    assert data["emitted"], "the demo run emitted no metrics at all?"
    assert data["undeclared"] == [], (
        "live run emitted names missing from repro/obs/names.py: "
        f"{data['undeclared']}"
    )


def test_declared_names_helpers_agree():
    # Sanity on the helper the live check rests on: every declared name
    # is covered, a family covers exactly one extra segment.
    assert names.undeclared(metric.name for metric in names.METRICS) == []
    member = names.RUNTIME_BYTES.labelled("full")
    assert (member.name, member.kind) == ("runtime.bytes.full", "counter")
    assert names.undeclared(
        ["runtime.bytes.full", "runtime.bytes.full.extra", "runtime.bytes."]
    ) == ["runtime.bytes.", "runtime.bytes.full.extra"]
    assert names.undeclared(["no.such.metric"]) == ["no.such.metric"]


def test_names_are_lowercase_dotted_and_not_near_duplicates():
    segment = r"([a-z][a-z0-9_]*|<[a-z]+>)"
    squeezed = {}
    for constant, metric in vars(names).items():
        if metric not in names.METRICS:
            continue
        assert re.fullmatch(rf"{segment}(\.{segment})+", metric.name), metric.name
        # The constant spells the name: DAEMON_APPLY_BATCHES is
        # daemon.apply_batches; a family drops its <label> segment.
        spelled = re.sub(r"\.<[a-z]+>$", "", metric.name)
        assert constant == spelled.replace(".", "_").upper(), constant
        # repo.bytes_reclaimed vs repo.bytes.reclaimed: one of them is a typo.
        twin = squeezed.setdefault(re.sub(r"[._]", "", metric.name), metric.name)
        assert twin == metric.name, f"{twin} and {metric.name} differ only in separators"
    assert len(squeezed) == len(names.METRICS)


def test_a_handle_has_only_the_verbs_of_its_kind():
    registry = MetricsRegistry()
    counter = names.RUNTIME_RETRIES
    assert not hasattr(counter, "set") and not hasattr(counter, "observe")
    counter.on(registry).add(2)
    gauge = names.ORCHESTRATOR_HOSTS_ALIVE
    assert not hasattr(gauge, "observe")
    gauge.on(registry).set(3)
    histogram = names.ORCHESTRATOR_SCORE.labelled("best-checkpoint")
    assert not hasattr(histogram, "add") and not hasattr(histogram, "set")
    histogram.on(registry).observe(0.25)
    # A family cannot be emitted, only its labelled members.
    assert not hasattr(names.RUNTIME_BYTES, "add")
    snapshot = registry.snapshot()
    assert snapshot["runtime.retries"] == {"type": "counter", "value": 2.0}
    assert snapshot["orchestrator.hosts.alive"]["value"] == 3
    score = snapshot["orchestrator.score.best-checkpoint"]
    assert score["boundaries"] == list(names.ORCHESTRATOR_SCORE.labelled("x").boundaries)
    assert score["total"] == 1


def test_docs_name_catalog_is_the_generated_one():
    # Regenerate with:
    #   PYTHONPATH=src python -c "from repro.obs import names; print(names.catalog_markdown())"
    text = (ROOT / "docs" / "observability.md").read_text()
    begin, end = "<!-- name-catalog:begin -->\n", "\n<!-- name-catalog:end -->"
    block = text[text.index(begin) + len(begin):text.index(end)]
    assert block == names.catalog_markdown()
