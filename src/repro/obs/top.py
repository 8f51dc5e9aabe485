"""``vecycle top``: a curses-free terminal dashboard for the cluster.

Renders the :meth:`~repro.orchestrator.telemetry.TelemetryAggregator.
dashboard_view` JSON — per-host recycle ratio, bytes saved vs.
transferred, active migrations, downtime percentiles — as plain text,
one full frame per refresh.  No curses: a frame is just a string, so
the same renderer is unit-testable, pipeable to a file, and usable in
CI with ``--iterations 1``.

Two ways to get a view:

* :func:`fetch_view` — GET ``/metrics.json`` from a controller started
  with ``vecycle orchestrate --metrics-port``;
* direct polling — the CLI builds its own aggregator over ``--connect``
  daemon addresses and calls ``dashboard_view()`` locally: the way to
  watch a standalone daemon, which serves no page of its own.
"""

from __future__ import annotations

import json
import urllib.request
from typing import Any, Dict, List

#: ANSI "clear screen + home" prefix used between live refreshes.
CLEAR = "\x1b[2J\x1b[H"


def format_bytes(value: float) -> str:
    """Humanize a byte count ("3.2 MiB"); exact below 1 KiB."""
    size = float(value)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(size)} {unit}"
            return f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{size:.1f} TiB"  # pragma: no cover - loop always returns


def format_seconds(value: float) -> str:
    """Render a duration with the natural unit (s, ms, or us)."""
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}us"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return lines


def render_dashboard(view: Dict[str, Any]) -> str:
    """One dashboard frame from a ``dashboard_view()`` dict."""
    cluster = view.get("cluster", {})
    hosts = view.get("hosts", [])
    health = view.get("health", {})
    lines: List[str] = []
    lines.append(
        f"vecycle top — controller {view.get('controller', '?')} — "
        f"{len(hosts)} host(s)"
    )
    recycled = cluster.get("recycled_bytes", 0.0)
    transferred = cluster.get("transferred_bytes", 0.0)
    lines.append(
        f"cluster: recycled {format_bytes(recycled)} (saved) | "
        f"transferred {format_bytes(transferred)} | "
        f"recycle ratio {cluster.get('recycle_ratio', 0.0) * 100:.1f}%"
    )
    lines.append(
        f"migrations: active {int(cluster.get('active_migrations', 0))} | "
        f"completed {int(cluster.get('migrations_completed', 0))} | "
        f"failed {int(cluster.get('migrations_failed', 0))}"
    )
    lines.append(
        f"downtime: p50 {format_seconds(cluster.get('downtime_p50_s', 0.0))}  "
        f"p99 {format_seconds(cluster.get('downtime_p99_s', 0.0))}  "
        f"(n={int(cluster.get('downtime_count', 0))})"
    )
    lines.append(
        f"telemetry: polls {health.get('polls', 0)}  "
        f"failures {health.get('poll_failures', 0)}  "
        f"restarts {health.get('restarts', 0)}  "
        f"seq gaps {health.get('seq_gaps', 0)}"
    )
    lines.append("")
    if hosts:
        rows = []
        for host in hosts:
            age = host.get("age_s")
            rows.append(
                [
                    str(host.get("host", "?")),
                    str(host.get("seq", 0)),
                    f"{age:.1f}s" if age is not None else "-",
                    str(int(host.get("sessions_completed", 0))),
                    format_bytes(host.get("recycled_bytes", 0.0)),
                    format_bytes(host.get("transferred_bytes", 0.0)),
                    f"{host.get('recycle_ratio', 0.0) * 100:.1f}%",
                ]
            )
        lines.extend(
            _table(
                ["HOST", "SEQ", "AGE", "SESS", "RECYCLED", "TRANSFERRED",
                 "RATIO"],
                rows,
            )
        )
    else:
        lines.append("(no host telemetry yet)")
    per_vm = view.get("per_vm", {})
    if per_vm:
        lines.append("")
        rows = []
        for vm in sorted(per_vm):
            values = per_vm[vm]
            rows.append(
                [
                    vm,
                    format_bytes(values.get("recycled_bytes", 0.0)),
                    format_bytes(values.get("transferred_bytes", 0.0)),
                    str(int(values.get("sessions_completed", 0))),
                ]
            )
        lines.extend(
            _table(["VM", "RECYCLED", "TRANSFERRED", "SESSIONS"], rows)
        )
    return "\n".join(lines)


def fetch_view(url: str, timeout_s: float = 5.0) -> Dict[str, Any]:
    """GET a dashboard view from a controller's ``--metrics-port`` endpoint.

    Accepts the endpoint base, ``/metrics``, or ``/metrics.json`` — all
    normalized to the JSON view.
    """
    if url.endswith("/metrics"):
        url += ".json"
    elif not url.endswith("/metrics.json"):
        url = url.rstrip("/") + "/metrics.json"
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return json.loads(response.read().decode("utf-8"))
