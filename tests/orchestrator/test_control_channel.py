"""The registry's kept-alive control channel, against real daemons.

Heartbeats and telemetry polls to one daemon ride one connection.  What
these tests pin: how many connections polling opens; that a channel the
daemon closed (a restart, an idle timeout) or a re-registered address is
replaced without a failure; that a probe failing on a live channel is
counted exactly as before and the next poll reconnects; and what the
daemon does with anything but a probe on such a channel.  A connection
that opens with an ERROR frame is still dropped and closed unanswered:
``tests/chaos/test_regressions.py::test_error_frame_opener_is_dropped_and_counted``
pins that, unchanged.
"""

import asyncio

import pytest

from repro.obs import names
from repro.orchestrator import ClusterRegistry, LiveCluster, TelemetryAggregator
from repro.runtime import CheckpointDaemon
from repro.runtime.faults import FaultInjector
from repro.runtime.frames import (
    TYPE_ERROR,
    TYPE_INVENTORY,
    FrameCodec,
)


@pytest.fixture
def accepted(monkeypatch):
    """Connections accepted by every daemon, counted as they arrive."""
    count = {"connections": 0}
    real = CheckpointDaemon._on_connection

    async def on_connection(daemon, stream):
        count["connections"] += 1
        await real(daemon, stream)

    monkeypatch.setattr(CheckpointDaemon, "_on_connection", on_connection)
    return count


def failed_heartbeats() -> float:
    return names.ORCHESTRATOR_HEARTBEATS_FAILED.on().value


def test_polls_of_three_daemons_open_three_connections(accepted):
    async def main():
        async with LiveCluster(["h0", "h1", "h2"]) as cluster:
            for _ in range(5):
                view = await cluster.registry.poll_all()
                assert view.hosts() == ["h0", "h1", "h2"]
                snapshots = await cluster.aggregator.poll_all()
                assert all(s is not None for s in snapshots.values())
            return [
                (
                    d.telemetry.counter("daemon.heartbeats").value,
                    d.telemetry.counter("daemon.telemetry_probes").value,
                )
                for d in cluster.daemons.values()
            ]

    answered = asyncio.run(main())
    assert accepted["connections"] == 3
    assert answered == [(5.0, 5.0)] * 3


def test_a_restarted_daemon_is_answered_on_a_fresh_connection(accepted):
    async def main():
        registry = ClusterRegistry(heartbeat_timeout_s=1.0)
        first = CheckpointDaemon(name="a")
        await first.start()
        registry.register("a", first.host, first.port)
        assert (await registry.poll("a")).alive
        port = first.port
        await first.stop()
        failed = failed_heartbeats()
        reborn = CheckpointDaemon(name="a")
        await reborn.start(port=port)
        try:
            record = await registry.poll("a")
            assert record.alive and record.consecutive_failures == 0
            assert failed_heartbeats() == failed
            assert reborn.telemetry.counter("daemon.heartbeats").value == 1
        finally:
            await registry.close()
            await reborn.stop()

    asyncio.run(main())
    assert accepted["connections"] == 2


def test_a_re_registered_address_is_answered_on_a_fresh_connection(accepted):
    async def main():
        registry = ClusterRegistry(heartbeat_timeout_s=1.0)
        old, new = CheckpointDaemon(name="a"), CheckpointDaemon(name="a")
        await old.start()
        await new.start()
        try:
            registry.register("a", old.host, old.port)
            assert (await registry.poll("a")).alive
            failed = failed_heartbeats()
            registry.register("a", new.host, new.port)
            record = await registry.poll("a")
            assert record.alive
            assert failed_heartbeats() == failed
            assert old.telemetry.counter("daemon.heartbeats").value == 1
            assert new.telemetry.counter("daemon.heartbeats").value == 1
        finally:
            await registry.close()
            await old.stop()
            await new.stop()

    asyncio.run(main())
    assert accepted["connections"] == 2


def test_a_dropped_telemetry_poll_fails_once_and_the_next_reconnects(accepted):
    async def main():
        registry = ClusterRegistry(heartbeat_timeout_s=1.0)
        aggregator = TelemetryAggregator(registry)
        async with CheckpointDaemon(name="lossy") as daemon:
            registry.register("lossy", daemon.host, daemon.port)
            try:
                assert (await registry.poll("lossy")).alive  # opens the channel
                daemon.faults = FaultInjector(drop_telemetry_times=1)
                assert await aggregator.poll("lossy") is None
                assert aggregator.poll_failures == 1
                assert await aggregator.poll("lossy") is not None
                assert aggregator.poll_failures == 1
                assert (await registry.poll("lossy")).alive
                return daemon.telemetry.counter(
                    "daemon.injected_telemetry_drops"
                ).value
            finally:
                await registry.close()

    assert asyncio.run(main()) == 1
    # The channel the drop tore down, then its replacement.
    assert accepted["connections"] == 2


def test_injected_heartbeat_loss_behaves_as_before(accepted):
    async def main():
        registry = ClusterRegistry(heartbeat_timeout_s=1.0)
        async with CheckpointDaemon(name="a") as daemon:
            registry.register("a", daemon.host, daemon.port)
            try:
                assert (await registry.poll("a")).alive
                failed = failed_heartbeats()
                registry.probe_fault = lambda name: name == "a"
                record = await registry.poll("a")
                assert not record.alive
                assert record.consecutive_failures == 1
                assert registry.view().hosts() == []
                assert failed_heartbeats() == failed + 1
                registry.probe_fault = None
                record = await registry.poll("a")
                assert record.alive and record.consecutive_failures == 0
                assert registry.view().hosts() == ["a"]
                # The dropped heartbeat never reached the daemon.
                return daemon.telemetry.counter("daemon.heartbeats").value
            finally:
                await registry.close()

    assert asyncio.run(main()) == 2
    # Nothing went over the channel, so nothing closed it.
    assert accepted["connections"] == 1


def test_an_idle_channel_is_closed_by_the_daemon_and_reopened_quietly(accepted):
    async def main():
        registry = ClusterRegistry(heartbeat_timeout_s=1.0)
        async with CheckpointDaemon(name="a", io_timeout_s=0.1) as daemon:
            registry.register("a", daemon.host, daemon.port)
            try:
                assert (await registry.poll("a")).alive
                assert (await registry.poll("a")).alive
                assert accepted["connections"] == 1
                failed = failed_heartbeats()
                await asyncio.sleep(0.4)  # past the daemon's idle bound
                record = await registry.poll("a")
                assert record.alive and record.consecutive_failures == 0
                assert failed_heartbeats() == failed
            finally:
                await registry.close()

    asyncio.run(main())
    assert accepted["connections"] == 2


def test_a_hello_after_a_heartbeat_is_a_protocol_error():
    codec = FrameCodec()
    hello = codec.encode_hello({
        "session": "vm-s", "vm_id": "vm", "num_pages": 4, "mode": "hashes",
        "page_size": 4096, "digest_size": 16, "algorithm": "md5",
    })

    async def main():
        async with CheckpointDaemon(name="a") as daemon:
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            try:
                writer.write(codec.encode_heartbeat({}))
                await writer.drain()
                inventory = await codec.read_frame(reader.readexactly)
                writer.write(hello)
                await writer.drain()
                error = await codec.read_frame(reader.readexactly)
                tail = await asyncio.wait_for(reader.read(), timeout=5.0)
            finally:
                writer.close()
                await writer.wait_closed()
            return inventory, error, tail, daemon.inventory_report()

    inventory, error, tail, report = asyncio.run(main())
    assert inventory.type == TYPE_INVENTORY
    assert error.type == TYPE_ERROR
    assert error.body["code"] == "bad-hello"
    assert tail == b""
    assert report["active_sessions"] == 0


def test_stop_with_idle_channels_open_leaves_no_handler_task():
    async def main():
        async with LiveCluster(
            ["h0", "h1", "h2"], heartbeat_timeout_s=1.0
        ) as cluster:
            await cluster.registry.poll_all()
            await cluster.aggregator.poll_all()
            # Idle channels hold a handler each, well inside the
            # daemons' 30 s idle bound: stop must not wait it out.
            for daemon in cluster.daemons.values():
                await asyncio.wait_for(daemon.stop(), timeout=5.0)
            leftover = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            # The controller's side saw the daemons go: the next poll
            # of a stopped daemon is a plain, counted failure.
            record = await cluster.registry.poll("h0")
            return leftover, record.alive

    leftover, alive = asyncio.run(main())
    assert leftover == []
    assert not alive
