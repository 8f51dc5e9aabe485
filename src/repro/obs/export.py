"""Exporters for recorded spans and metrics.

Three consumers, three formats:

* **JSONL** — one JSON object per line, machine-greppable, loss-free
  (round-trips through :meth:`SpanRecord.to_dict`/``from_dict``).
* **Chrome ``trace_event``** — a JSON object with a ``traceEvents``
  array that ``chrome://tracing`` and https://ui.perfetto.dev load
  directly; each asyncio task becomes its own named track.
* **Summary tree** — a human-readable aggregate for terminals: sibling
  spans with the same name merge into one line with call count, total
  wall time, and total modelled time.

:func:`export_trace` is the one function that writes a trace file, for
``--trace-out``, ``REPRO_TRACE=<path>`` and ``vecycle obs`` alike; the
file name picks the format (``.jsonl`` the event log, anything else
Chrome JSON).  A trace is spans plus one metrics snapshot, whatever
the command; :func:`read_jsonl` reads both back, so a converted trace
keeps its run's metrics.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import get_registry
from repro.obs.trace import SpanRecord, get_tracer

#: A metrics snapshot, as :meth:`~repro.obs.metrics.MetricsRegistry.
#: snapshot` returns it: ``{name: state}``.
Metrics = Dict[str, Dict[str, Any]]

__all__ = [
    "to_jsonl_lines",
    "read_jsonl",
    "to_chrome_trace",
    "summary_tree",
    "export_trace",
]


# --- JSONL ---------------------------------------------------------------


def to_jsonl_lines(
    records: Iterable[SpanRecord],
    metrics: Optional[Metrics] = None,
) -> List[str]:
    """Serialize spans (and a non-empty metrics snapshot) to JSON lines."""
    lines = [json.dumps(record.to_dict(), sort_keys=True) for record in records]
    if metrics:
        lines.append(
            json.dumps({"kind": "metrics", "metrics": metrics}, sort_keys=True)
        )
    return lines


def read_jsonl(path: str) -> Tuple[List[SpanRecord], Metrics]:
    """Load a JSONL event log: its spans and its metrics snapshot.

    The snapshot is ``{}`` when the log has no ``metrics`` line.
    """
    records: List[SpanRecord] = []
    metrics: Metrics = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if data.get("kind") == "metrics":
                metrics = data["metrics"]
            elif "id" in data:  # older traces also hold telemetry lines
                records.append(SpanRecord.from_dict(data))
    return records, metrics


# --- Chrome trace_event --------------------------------------------------


def to_chrome_trace(
    records: Sequence[SpanRecord],
    metrics: Optional[Metrics] = None,
    process_name: str = "repro",
) -> Dict[str, Any]:
    """Render spans as a Chrome/Perfetto ``trace_event`` JSON object.

    Spans become complete ("X") events; instants become thread-scoped
    "i" events.  Each distinct task label gets its own ``tid`` plus a
    ``thread_name`` metadata record, so source and daemon tasks show as
    separate tracks of one process.  A non-empty ``metrics`` snapshot
    goes under ``otherData``.
    """
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for record in records:
        tid = tids.get(record.task)
        if tid is None:
            tid = len(tids) + 1
            tids[record.task] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": record.task},
                }
            )
        args = dict(record.attrs)
        if record.modelled_s:
            args["modelled_s"] = round(record.modelled_s, 9)
        base = {
            "name": record.name,
            "cat": record.name.split(".", 1)[0],
            "pid": 1,
            "tid": tid,
            "ts": round(record.start_s * 1e6, 3),
            "args": args,
        }
        if record.kind == "instant":
            events.append({**base, "ph": "i", "s": "t"})
        else:
            events.append(
                {**base, "ph": "X", "dur": round(record.duration_s * 1e6, 3)}
            )
    trace: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metrics:
        trace["otherData"] = {"metrics": metrics}
    return trace


# --- terminal summary tree ----------------------------------------------


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def summary_tree(records: Sequence[SpanRecord], max_depth: int = 8) -> str:
    """Aggregate the span forest into an indented terminal tree.

    Sibling spans sharing a name merge into one line::

        runtime.migrate  1x  152.43ms
        |- connect       1x    1.21ms
        |- announce      1x   11.73ms
        |- round         3x  131.90ms
        '- complete      1x    7.41ms
    """
    ids = {record.span_id for record in records if record.kind == "span"}
    children: Dict[int, List[SpanRecord]] = {}
    for record in records:
        if record.kind != "span":
            continue
        parent = record.parent_id if record.parent_id in ids else 0
        children.setdefault(parent, []).append(record)

    lines: List[str] = []

    def emit(parents: Sequence[int], prefix: str, depth: int) -> None:
        if depth > max_depth:
            return
        groups: Dict[str, List[SpanRecord]] = {}
        for parent in parents:
            for record in children.get(parent, []):
                groups.setdefault(record.name, []).append(record)
        ordered = sorted(
            groups.items(), key=lambda item: min(r.start_s for r in item[1])
        )
        for position, (name, group) in enumerate(ordered):
            last = position == len(ordered) - 1
            connector = "" if depth == 0 else ("'- " if last else "|- ")
            wall = sum(r.duration_s for r in group)
            modelled = sum(r.modelled_s for r in group)
            line = (
                f"{prefix}{connector}{name}  {len(group)}x  "
                f"{_format_seconds(wall)}"
            )
            if modelled:
                line += f"  (modelled {_format_seconds(modelled)})"
            lines.append(line)
            child_prefix = prefix if depth == 0 else (
                prefix + ("   " if last else "|  ")
            )
            emit([record.span_id for record in group], child_prefix, depth + 1)

    emit([0], "", 0)
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


# --- the trace writer ----------------------------------------------------


def export_trace(
    path: str,
    records: Optional[Sequence[SpanRecord]] = None,
    metrics: Optional[Metrics] = None,
) -> None:
    """Write a trace file; the only writer of one.

    ``records`` defaults to the default tracer's finished spans and
    ``metrics`` to the process registry's snapshot, both taken at write
    time.  A ``path`` ending in ``.jsonl`` gets the event log: the spans
    and one ``metrics`` line.  Any other path gets Chrome
    ``trace_event`` JSON with the snapshot under ``otherData``.
    """
    if records is None:
        records = get_tracer().finished()
    if metrics is None:
        metrics = get_registry().snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        if str(path).endswith(".jsonl"):
            for line in to_jsonl_lines(records, metrics):
                handle.write(line + "\n")
        else:
            json.dump(to_chrome_trace(records, metrics), handle)
