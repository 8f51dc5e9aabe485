"""Flight recorder: bounded ring, crash-path dumps, log capture."""

from __future__ import annotations

import asyncio
import sys

import numpy as np
import pytest

from repro.core.strategies import VECYCLE
from repro.mem.pagestore import PageStore
from repro.obs import flight, get_registry
from repro.obs.flight import (
    DEFAULT_CAPACITY,
    FLIGHT_DIR_ENV,
    FlightRecorder,
    read_dump,
)
from repro.runtime import CheckpointDaemon, MigrationSource, SourceState


@pytest.fixture(autouse=True)
def flight_dir(tmp_path, monkeypatch):
    """Every test dumps into its own directory."""
    monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
    return tmp_path


class TestRing:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder("t")
        for i in range(DEFAULT_CAPACITY + 7):
            recorder.note("event", i=i)
        assert len(recorder.events) == DEFAULT_CAPACITY
        assert [e["i"] for e in recorder.events][:3] == [7, 8, 9]

    def test_note_stamps_time_and_kind(self):
        recorder = FlightRecorder("t")
        recorder.note("frame", frame_type="result")
        event = recorder.events[-1]
        assert event["kind"] == "frame"
        assert event["frame_type"] == "result"
        assert event["t"] > 0


class TestDump:
    def test_dump_roundtrips_through_read_dump(self, flight_dir):
        recorder = FlightRecorder("victim")
        recorder.note("session", vm="vm-1")
        recorder.note("daemon.result", vm="vm-1", ok=True)
        path = recorder.dump("test crash")
        assert path is not None
        assert path.startswith(str(flight_dir))
        dump = read_dump(path)
        assert dump["header"]["name"] == "victim"
        assert dump["header"]["reason"] == "test crash"
        assert dump["header"]["events"] == 2
        kinds = [e["kind"] for e in dump["events"]]
        assert kinds == ["session", "daemon.result"]
        # The default registry is the process-wide one.
        assert dump["metrics"].keys() == get_registry().snapshot().keys()

    def test_each_daemon_dump_ends_with_its_own_instruments(self):
        pagestore = PageStore()

        async def migrate_into(daemon, pages):
            hashes = np.arange(1, pages + 1, dtype=np.uint64)
            source = MigrationSource(SourceState("vm", hashes, pagestore), VECYCLE)
            metrics = await source.migrate(daemon.host, daemon.port)
            assert metrics.outcome == "completed"
            return daemon.flight.dump("check")

        async def main():
            async with CheckpointDaemon("a", pagestore=pagestore) as a, \
                    CheckpointDaemon("b", pagestore=pagestore) as b:
                return await migrate_into(a, 64), await migrate_into(b, 32)

        dumps = [read_dump(path)["metrics"] for path in asyncio.run(main())]
        received = [m["daemon.pages_received"]["value"] for m in dumps]
        assert received == [64, 32]
        for metrics in dumps:
            assert metrics["daemon.sessions.completed"]["value"] == 1

    def test_empty_ring_dumps_nothing(self):
        assert FlightRecorder("empty").dump("nothing happened") is None

    def test_unwritable_directory_returns_none_not_raise(self, tmp_path):
        recorder = FlightRecorder("t")
        recorder.note("x")
        target = tmp_path / "file-not-dir"
        target.write_text("occupied")
        assert recorder.dump("r", directory=str(target)) is None

    def test_dump_filenames_are_unique_per_dump(self, flight_dir):
        recorder = FlightRecorder("t")
        recorder.note("x")
        first = recorder.dump("a")
        second = recorder.dump("b")
        assert first != second

    def test_env_var_overrides_dump_dir(self, flight_dir):
        assert flight.dump_dir() == str(flight_dir)


class TestDumpAll:
    def test_dump_all_covers_live_recorders(self, flight_dir):
        recorder = FlightRecorder("comp-a")
        recorder.note("x")
        paths = flight.dump_all("sweep")
        assert any("comp-a" in p for p in paths)


class TestInstall:
    def test_excepthook_chains_and_dumps(self, flight_dir, monkeypatch):
        seen = []
        monkeypatch.setattr(
            sys, "excepthook", lambda *args: seen.append(args)
        )
        monkeypatch.setattr(flight, "_installed", False)
        flight.install()
        assert sys.excepthook is not None
        error = ValueError("boom")
        sys.excepthook(ValueError, error, None)
        # The original hook still ran (traceback still prints)...
        assert seen and seen[0][1] is error
        # ...and the crash landed in the default ring and on disk.
        events = list(flight.default_recorder().events)
        assert any(
            e["kind"] == "crash" and e["message"] == "boom" for e in events
        )
        assert list(flight_dir.glob("flight-*.jsonl"))

    def test_install_is_idempotent(self, monkeypatch):
        monkeypatch.setattr(flight, "_installed", False)
        flight.install()
        hook = sys.excepthook
        flight.install()
        assert sys.excepthook is hook

    def test_sigusr2_handler_dumps_and_reports(self, flight_dir, capsys):
        flight.default_recorder().note("alive")
        flight._on_sigusr2(None, None)
        captured = capsys.readouterr()
        assert "flight recorder: wrote" in captured.err
        assert list(flight_dir.glob("flight-process-*.jsonl"))


class TestLogCapture:
    def test_warning_logs_land_in_default_ring(self, monkeypatch):
        import logging

        monkeypatch.setattr(flight, "_installed", False)
        flight.install()
        logging.getLogger("repro.test_flight").warning("trouble %s", "here")
        events = list(flight.default_recorder().events)
        assert any(
            e["kind"] == "log" and e["message"] == "trouble here"
            for e in events
        )
