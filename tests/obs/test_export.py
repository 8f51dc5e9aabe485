"""Exporters: JSONL round-trip, Chrome trace_event shape, summary tree."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    export_trace,
    get_registry,
    get_tracer,
    read_jsonl,
    span,
    summary_tree,
    to_chrome_trace,
    to_jsonl_lines,
)
from repro.obs.trace import SpanRecord


def _record(span_id, parent_id, name, start_s, duration_s, **kwargs):
    return SpanRecord(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        start_s=start_s,
        duration_s=duration_s,
        **kwargs,
    )


@pytest.fixture
def sample_records():
    """A deterministic two-task span forest with an instant event."""
    return [
        _record(2, 1, "connect", 0.001, 0.002, task="source"),
        _record(3, 1, "round", 0.004, 0.010, task="source",
                attrs={"round_no": 1}, modelled_s=0.5),
        _record(5, 4, "daemon.round", 0.005, 0.009, task="daemon"),
        _record(6, 1, "mark", 0.014, 0.0, task="source", kind="instant"),
        _record(1, 0, "runtime.migrate", 0.0, 0.020, task="source",
                attrs={"vm": "vm0"}, modelled_s=0.5),
        _record(4, 0, "daemon.session", 0.002, 0.018, task="daemon"),
    ]


def test_jsonl_round_trip_is_exact(tmp_path, sample_records):
    path = str(tmp_path / "trace.jsonl")
    registry = get_registry()
    registry.counter("runtime.retries").add(1)
    export_trace(path, records=sample_records)
    with open(path) as handle:
        lines = handle.read().splitlines()
    # one line per record plus the trailing metrics line
    assert len(lines) == len(sample_records) + 1
    assert json.loads(lines[-1])["kind"] == "metrics"
    loaded, metrics = read_jsonl(path)
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in sample_records]
    assert metrics == registry.snapshot()


def test_jsonl_omits_metrics_line_when_registry_empty(sample_records):
    lines = to_jsonl_lines(sample_records, get_registry().snapshot())
    assert len(lines) == len(sample_records)


def test_chrome_trace_structure(sample_records):
    registry = get_registry()
    registry.counter("engine.migrations").add(3)
    trace = to_chrome_trace(sample_records, registry.snapshot(), process_name="proc")
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["args"]["name"] for e in meta} == {"proc", "source", "daemon"}
    assert len(spans) == 5 and len(instants) == 1
    # one tid lane per task label
    by_task = {}
    for record, event in zip(sample_records, events[2:]):
        by_task.setdefault(record.task, set()).add(event["tid"])
    migrate = next(e for e in spans if e["name"] == "runtime.migrate")
    assert migrate["ts"] == 0.0
    assert migrate["dur"] == pytest.approx(20000.0)
    assert migrate["cat"] == "runtime"
    assert migrate["args"]["vm"] == "vm0"
    assert migrate["args"]["modelled_s"] == pytest.approx(0.5)
    source_tids = {e["tid"] for e in spans + instants
                   if e["name"] in ("connect", "round", "runtime.migrate", "mark")}
    daemon_tids = {e["tid"] for e in spans
                   if e["name"].startswith("daemon.")}
    assert len(source_tids) == 1 and len(daemon_tids) == 1
    assert source_tids != daemon_tids
    assert trace["otherData"]["metrics"]["engine.migrations"]["value"] == 3


def test_chrome_trace_is_valid_json(sample_records):
    json.loads(json.dumps(to_chrome_trace(sample_records)))


def test_summary_tree_merges_and_indents(sample_records):
    extra_round = _record(7, 1, "round", 0.015, 0.004, task="source",
                          attrs={"round_no": 2})
    tree = summary_tree(sample_records + [extra_round])
    lines = tree.splitlines()
    assert lines[0].startswith("runtime.migrate  1x")
    assert any(line.lstrip("|'- ").startswith("round  2x") for line in lines)
    assert "mark" not in tree  # instants are excluded from the tree
    # the two roots both render at column zero
    assert any(line.startswith("daemon.session  1x") for line in lines)
    assert any(line.startswith("'- daemon.round  1x") for line in lines)
    # modelled time annotated where present
    migrate_line = lines[0]
    assert "(modelled" in migrate_line


def test_summary_tree_empty():
    assert summary_tree([]) == "(no spans recorded)"


def test_summary_tree_orphan_spans_become_roots():
    orphan = _record(9, 999, "lost", 0.0, 0.001)
    assert summary_tree([orphan]).startswith("lost  1x")


def test_export_trace_formats(tmp_path):
    tracer = get_tracer()
    tracer.enable()
    with span("top"):
        pass
    chrome_path = str(tmp_path / "t.json")
    jsonl_path = str(tmp_path / "t.jsonl")
    other_path = str(tmp_path / "t.trace")
    export_trace(chrome_path)
    export_trace(jsonl_path)
    export_trace(other_path)
    for path in (chrome_path, other_path):  # only .jsonl is the event log
        with open(path) as handle:
            assert "traceEvents" in json.load(handle)
    records, _ = read_jsonl(jsonl_path)
    assert records[0].name == "top"
