"""Executor semantics: admission control over the source's one retry
loop, structured failure."""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.strategies import QEMU
from repro.mem.pagestore import PageStore
from repro.orchestrator.executor import AdmissionLimits, MigrationExecutor
from repro.runtime import (
    CheckpointDaemon,
    FrameCodec,
    MigrationError,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.runtime.faults import FaultInjector
from repro.runtime.frames import TYPE_COMPLETE
from repro.runtime.metrics import MigrationMetrics


class FakeSource:
    """Quacks like a MigrationSource; records concurrency and failures."""

    def __init__(self, vm_id, tracker, failures=(), delay_s=0.02):
        self.state = SimpleNamespace(vm_id=vm_id)
        self.tracker = tracker
        self.failures = list(failures)
        self.delay_s = delay_s
        self.calls = 0
        self.result_generation = None

    async def migrate(self, host, port):
        self.calls += 1
        self.tracker["running"] += 1
        self.tracker["peak"] = max(self.tracker["peak"], self.tracker["running"])
        try:
            await asyncio.sleep(self.delay_s)
            if self.failures:
                raise MigrationError(self.failures.pop(0), "injected")
            return MigrationMetrics(vm_id=self.state.vm_id, mode="fake", link="x")
        finally:
            self.tracker["running"] -= 1


def run(coro):
    return asyncio.run(coro)


class TestAdmissionControl:
    def test_cluster_cap_bounds_concurrency(self):
        limits = AdmissionLimits(cluster_max=2, per_host_max=2)
        executor = MigrationExecutor(limits)
        tracker = {"running": 0, "peak": 0}

        async def main():
            outcomes = await asyncio.gather(
                *(
                    executor.run(
                        FakeSource(f"vm-{i}", tracker), f"host-{i}", "h", 0
                    )
                    for i in range(6)
                )
            )
            return outcomes

        outcomes = run(main())
        assert all(o.ok for o in outcomes)
        assert tracker["peak"] <= 2

    def test_per_host_cap_bounds_one_destination(self):
        limits = AdmissionLimits(cluster_max=8, per_host_max=1)
        executor = MigrationExecutor(limits)
        tracker = {"running": 0, "peak": 0}

        async def main():
            return await asyncio.gather(
                *(
                    executor.run(
                        FakeSource(f"vm-{i}", tracker), "same-host", "h", 0
                    )
                    for i in range(4)
                )
            )

        outcomes = run(main())
        assert all(o.ok for o in outcomes)
        assert tracker["peak"] == 1

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            AdmissionLimits(cluster_max=0)
        with pytest.raises(ValueError):
            AdmissionLimits(per_host_max=0)


def live_source(max_attempts, on_stream=None):
    """A real 64-page QEMU source with a budget of ``max_attempts``."""
    rng = np.random.default_rng(2)
    return MigrationSource(
        SourceState(
            "vm", rng.integers(1, 2**62, size=64, dtype=np.uint64), PageStore()
        ),
        QEMU,
        config=RuntimeConfig(
            io_timeout_s=2.0,
            retry=RetryPolicy(max_attempts=max_attempts, base_backoff_s=0.001),
            on_stream=on_stream,
        ),
    )


class TestRetry:
    """One ``migrate`` call per run; the source's loop does the retrying."""

    def test_transport_failure_retried_and_resumed(self):
        async def main():
            async with CheckpointDaemon() as daemon:
                daemon.faults = FaultInjector(after_messages=20, times=1)
                source = live_source(max_attempts=3)
                session = source.session_id
                outcome = await MigrationExecutor().run(
                    source, "host", daemon.host, daemon.port
                )
                return outcome, session == source.session_id, daemon.telemetry

        outcome, same_session, telemetry = run(main())
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.metrics.retries == 1
        assert same_session
        assert telemetry.counter("daemon.sessions.completed").value == 1

    def test_retries_are_bounded(self):
        async def main():
            async with CheckpointDaemon() as daemon:
                daemon.faults = FaultInjector(after_messages=5, times=5)
                return await MigrationExecutor().run(
                    live_source(max_attempts=2), "host", daemon.host, daemon.port
                )

        outcome = run(main())
        assert not outcome.ok
        assert outcome.attempts == 2
        assert outcome.error_code == "transport"

    def test_protocol_failures_never_retried(self):
        connections = []
        codec = FrameCodec(QEMU.wire)

        async def rejecting_sink(reader, writer):
            """Takes the whole image, then refuses it."""
            await codec.read_frame(reader.readexactly)  # HELLO
            writer.write(codec.encode_ready(1, 0, False, False))
            frame = await codec.read_frame(reader.readexactly)
            while frame.type != TYPE_COMPLETE:
                frame = await codec.read_frame(reader.readexactly)
            writer.write(codec.encode_result({"ok": False, "error": "mismatch"}))
            await writer.drain()
            writer.close()

        async def main():
            server = await asyncio.start_server(rejecting_sink, "127.0.0.1", 0)
            async with server:
                host, port = server.sockets[0].getsockname()[:2]
                return await MigrationExecutor().run(
                    live_source(max_attempts=3, on_stream=connections.append),
                    "host", host, port,
                )

        outcome = run(main())
        assert not outcome.ok
        assert outcome.attempts == 1
        assert outcome.error_code == "verification"
        assert len(connections) == 1


class TestStructuredFailure:
    def test_connection_refused_reports_not_raises(self):
        async def main():
            # Bind-then-close: a port with nothing listening.
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            server.close()
            await server.wait_closed()
            return await MigrationExecutor().run(
                live_source(max_attempts=2), "dead-host", host, port
            )

        outcome = run(main())
        assert not outcome.ok
        assert outcome.error_code == "transport"
        assert outcome.attempts == 2
        assert outcome.metrics is not None
        assert outcome.metrics.outcome == "failed"
