"""The control plane's wire bodies: empty requests, a load-and-sketches
inventory, and a garbled body on either side costs one probe, not a crash."""

import asyncio

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.orchestrator import (
    SKETCH_K,
    ClusterRegistry,
    LiveCluster,
    TelemetryAggregator,
    digest_sketch,
)
from repro.runtime import CheckpointDaemon
from repro.runtime.frames import TYPE_INVENTORY, FrameCodec

IMAGE = Fingerprint(hashes=np.arange(1, 201, dtype=np.uint64))


def test_requests_are_empty_and_an_inventory_is_load_and_sketches(monkeypatch):
    received = []
    for kind in ("heartbeat", "telemetry"):
        real = getattr(CheckpointDaemon, f"_answer_{kind}")

        async def answer(daemon, stream, codec, hello, kind=kind, real=real):
            received.append((kind, hello.body))
            await real(daemon, stream, codec, hello)

        monkeypatch.setattr(CheckpointDaemon, f"_answer_{kind}", answer)

    async def main():
        registry = ClusterRegistry()
        replies = []
        real_probe = registry.probe

        async def probe(record, request):
            reply = await real_probe(record, request)
            replies.append(reply)
            return reply

        registry.probe = probe
        async with CheckpointDaemon(name="a") as daemon:
            daemon.install_checkpoint("vm", IMAGE)
            registry.register("a", daemon.host, daemon.port)
            try:
                await registry.poll_all()
                await TelemetryAggregator(registry).poll_all()
            finally:
                await registry.close()
            return replies[0], daemon.checkpoints["vm"].distinct

    inventory, distinct = asyncio.run(main())
    assert received == [("heartbeat", {}), ("telemetry", {})]
    assert inventory.type == TYPE_INVENTORY
    assert set(inventory.body) == {"active_sessions", "checkpoints"}
    assert inventory.body["active_sessions"] == 0
    assert inventory.body["checkpoints"] == {"vm": digest_sketch(distinct)}
    assert len(inventory.body["checkpoints"]["vm"]) == SKETCH_K


GARBLED_INVENTORIES = {
    "a list": [],
    "an entry without a vm_id": {
        "host": "a", "active_sessions": 0,
        "checkpoints": [{"pages": 1, "unique_pages": 1, "stored_bytes": 1}],
    },
    "a non-integer load": {"host": "a", "active_sessions": "busy", "checkpoints": {}},
    "a non-integer page count": {
        "host": "a", "active_sessions": 0,
        "checkpoints": [
            {"vm_id": "vm", "pages": "x", "unique_pages": 1, "stored_bytes": 1}
        ],
    },
    "a sketch that is a string": {"active_sessions": 0, "checkpoints": {"vm": "aa"}},
}


@pytest.mark.parametrize("body", GARBLED_INVENTORIES.values(), ids=list(GARBLED_INVENTORIES))
def test_a_garbled_inventory_is_a_failed_heartbeat(body):
    async def main():
        async with LiveCluster(["a", "b"], heartbeat_timeout_s=1.0) as cluster:
            cluster.daemons["a"].inventory_report = lambda *_args, **_kwargs: body
            registry = cluster.registry
            view = await registry.poll_all()
            return view, registry.record("a"), registry.record("b")

    view, bad, good = asyncio.run(main())
    assert not bad.alive and bad.consecutive_failures == 1
    assert good.alive
    assert view.hosts() == ["b"]


@pytest.mark.parametrize("body", [[], {"sketch_k": "x"}], ids=["list", "bad-sketch-k"])
def test_a_malformed_heartbeat_is_answered(body):
    codec = FrameCodec()
    unhandled = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        async with CheckpointDaemon(name="a") as daemon:
            reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
            try:
                writer.write(codec.encode_heartbeat(body))
                await writer.drain()
                reply = await asyncio.wait_for(codec.read_frame(reader.readexactly), 5.0)
            finally:
                writer.close()
                await writer.wait_closed()
            return reply

    reply = asyncio.run(main())
    assert unhandled == []
    assert reply.type == TYPE_INVENTORY
    assert reply.body == {"active_sessions": 0, "checkpoints": {}}
