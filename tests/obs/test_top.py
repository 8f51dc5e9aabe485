"""The curses-free terminal dashboard renderer."""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np

from repro.cli import main
from repro.core.strategies import VECYCLE
from repro.mem.pagestore import PageStore
from repro.obs.prometheus import MetricsServer
from repro.obs.top import (
    fetch_view,
    format_bytes,
    format_seconds,
    render_dashboard,
)
from repro.runtime import CheckpointDaemon, MigrationSource, SourceState

VIEW = {
    "controller": "ctl",
    "hosts": [
        {
            "host": "host-a",
            "seq": 12,
            "age_s": 0.5,
            "sessions_completed": 3.0,
            "recycled_bytes": 11853824.0,
            "transferred_bytes": 4935504.0,
            "recycle_ratio": 0.706,
        },
        {
            "host": "host-b",
            "seq": 11,
            "age_s": None,
            "sessions_completed": 1.0,
            "recycled_bytes": 0.0,
            "transferred_bytes": 1024.0,
            "recycle_ratio": 0.0,
        },
    ],
    "cluster": {
        "recycled_bytes": 11853824.0,
        "transferred_bytes": 4936528.0,
        "recycle_ratio": 0.706,
        "active_migrations": 1.0,
        "migrations_completed": 4.0,
        "migrations_failed": 0.0,
        "downtime_p50_s": 0.004,
        "downtime_p99_s": 0.031,
        "downtime_count": 4,
    },
    "per_vm": {
        "vdi-vm": {
            "recycled_bytes": 11853824.0,
            "transferred_bytes": 4936528.0,
            "sessions_completed": 4.0,
        }
    },
    "health": {"polls": 12, "poll_failures": 0, "restarts": 1, "seq_gaps": 0},
}


class TestFormatters:
    def test_format_bytes_units(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(11853824) == "11.3 MiB"
        assert format_bytes(3 * 2**30) == "3.0 GiB"
        assert format_bytes(5 * 2**40) == "5.0 TiB"

    def test_format_seconds_scales(self):
        assert format_seconds(2.5) == "2.50s"
        assert format_seconds(0.004) == "4.0ms"
        assert format_seconds(0.000031) == "31us"


class TestRenderDashboard:
    def test_frame_carries_every_headline_number(self):
        frame = render_dashboard(VIEW)
        assert "vecycle top — controller ctl — 2 host(s)" in frame
        assert "recycled 11.3 MiB (saved)" in frame
        assert "recycle ratio 70.6%" in frame
        assert "active 1 | completed 4 | failed 0" in frame
        assert "p50 4.0ms" in frame and "p99 31.0ms" in frame
        assert "restarts 1" in frame

    def test_host_table_rows_align(self):
        frame = render_dashboard(VIEW)
        lines = frame.splitlines()
        header = next(line for line in lines if line.startswith("HOST"))
        row_a = next(line for line in lines if line.startswith("host-a"))
        assert header.index("RECYCLED") == row_a.index("11.3 MiB")
        # A host never successfully polled shows "-" for age.
        row_b = next(line for line in lines if line.startswith("host-b"))
        assert "-" in row_b

    def test_vm_table_present(self):
        frame = render_dashboard(VIEW)
        assert "VM" in frame
        assert "vdi-vm" in frame

    def test_empty_view_renders_placeholder(self):
        frame = render_dashboard({})
        assert "(no host telemetry yet)" in frame
        assert "0 host(s)" in frame


class TestFetchView:
    def test_fetch_normalizes_url_variants(self):
        server = MetricsServer(
            render_text=lambda: "",
            render_json=lambda: {"controller": "ctl", "thread": threading.current_thread().name},
            port=0,
        ).start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            for url in (base, base + "/", base + "/metrics",
                        base + "/metrics.json"):
                view = fetch_view(url)
                assert view["controller"] == "ctl"
        finally:
            server.stop()

    def test_view_is_json_roundtrippable(self):
        # The dashboard view must survive the HTTP JSON hop losslessly.
        assert json.loads(json.dumps(VIEW)) == VIEW


class TestConnect:
    def test_a_standalone_daemon_is_watched_over_telemetry(self, capsys):
        """``top --connect`` polls a live daemon, which serves no page."""
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        def on_loop(coro):
            return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=30)

        daemon = CheckpointDaemon("standalone")
        try:
            host, port = on_loop(daemon.start())
            hashes = np.arange(1, 65, dtype=np.uint64)
            source = MigrationSource(SourceState("vm", hashes, PageStore()), VECYCLE)
            assert on_loop(source.migrate(host, port)).outcome == "completed"
            capsys.readouterr()
            assert main(["top", "--connect", f"{host}:{port}", "--iterations", "1"]) == 0
            frame = capsys.readouterr().out
        finally:
            on_loop(daemon.stop())
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
        assert not thread.is_alive()
        loop.close()
        assert "controller vecycle-top — 1 host(s)" in frame
        header, row = [
            line.split() for line in frame.splitlines()
            if line.startswith(("HOST ", f"{host}:{port} "))
        ]
        assert row[header.index("SESS")] == "1"
