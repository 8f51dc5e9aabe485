"""The checksum announce has two shapes: a source that names the hosted
checkpoint's current generation skips it (verified), and every other
claim — one generation behind, older, never issued, from before a
restart, or none at all — gets the full ANNOUNCE, which costs exactly
what a migration that claimed nothing pays."""

import asyncio

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE
from repro.mem.pagestore import PageStore
from repro.runtime import (
    CheckpointDaemon,
    FrameCodec,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.runtime.frames import TYPE_ANNOUNCE, TYPE_ERROR, TYPE_READY

N = 1024
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)


def build_vm(seed: int = 11, updates: int = 100):
    rng = np.random.default_rng(seed)
    checkpoint = rng.integers(1, 2**62, size=N, dtype=np.uint64)
    dup = rng.choice(N, size=N // 10, replace=False)
    checkpoint[dup] = checkpoint[rng.integers(0, N, size=N // 10)]
    current = checkpoint.copy()
    dirty = np.sort(rng.choice(N, size=updates, replace=False))
    current[dirty] = rng.integers(2**62, 2**63, size=updates, dtype=np.uint64)
    return checkpoint, current, dirty


def churn(hashes, seed, slots=40):
    rng = np.random.default_rng(seed)
    changed = hashes.copy()
    idx = rng.choice(changed.size, size=slots, replace=False)
    changed[idx] = rng.integers(2**62, 2**63, size=slots, dtype=np.uint64)
    return changed


def hello_for(codec, **fields):
    """A HELLO body for ``vm`` as a VECYCLE source sends it, with ``fields``
    added or replaced."""
    return {
        "session": "vm-claim",
        "vm_id": "vm",
        "num_pages": N,
        "mode": VECYCLE.method.value,
        "page_size": codec.page_size,
        "digest_size": codec.digest_size,
        "algorithm": VECYCLE.checksum.name,
        **fields,
    }


async def exchange(daemon, codec, hello, replies):
    """Send ``hello`` to ``daemon``; the first ``replies`` frames back."""
    reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
    try:
        writer.write(codec.encode_hello(hello))
        await writer.drain()
        return [await codec.read_frame(reader.readexactly) for _ in range(replies)]
    finally:
        writer.close()
        await writer.wait_closed()


async def migrate_once(checkpoint, current, dirty, config=FAST):
    pagestore = PageStore()
    async with CheckpointDaemon(pagestore=pagestore) as daemon:
        if checkpoint is not None:
            daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
        source = MigrationSource(
            SourceState(
                vm_id="vm",
                hashes=current,
                pagestore=pagestore,
            ),
            VECYCLE,
            config=config,
        )
        metrics = await source.migrate(daemon.host, daemon.port)
        return metrics, daemon


class TestAnnounceShapes:
    def test_current_generation_gets_verified_skip(self):
        checkpoint, _, _ = build_vm(seed=31, updates=0)

        async def scenario():
            pagestore = PageStore()
            async with CheckpointDaemon(pagestore=pagestore) as daemon:
                hosted = daemon.install_checkpoint(
                    "vm", Fingerprint(hashes=checkpoint)
                )
                source = MigrationSource(
                    SourceState(
                        vm_id="vm",
                        hashes=checkpoint,
                        pagestore=pagestore,
                        known_remote=(hosted.generation, hosted.distinct),
                    ),
                    VECYCLE,
                    config=FAST,
                )
                metrics = await source.migrate(daemon.host, daemon.port)
                return metrics, daemon

        metrics, daemon = asyncio.run(scenario())
        assert metrics.outcome == "completed"
        assert metrics.announce_bytes == 0
        assert daemon.telemetry.counter("daemon.announce.skipped").value == 1

    def test_restart_loses_history_and_falls_back_to_full(self, tmp_path):
        checkpoint, _, _ = build_vm(seed=41, updates=0)
        moved = churn(checkpoint, seed=42)
        state_dir = tmp_path / "daemon-state"

        async def scenario():
            pagestore = PageStore()
            async with CheckpointDaemon(
                pagestore=pagestore, state_dir=state_dir
            ) as daemon:
                first = daemon.install_checkpoint(
                    "vm", Fingerprint(hashes=checkpoint)
                )
                known = daemon.checkpoint_digests("vm")
                daemon.install_checkpoint("vm", Fingerprint(hashes=moved))
                base_generation = first.generation
            # Restart: generations recover from the durable manifests.
            async with CheckpointDaemon(
                pagestore=pagestore, state_dir=state_dir
            ) as daemon:
                assert daemon.checkpoints["vm"].generation > base_generation
                source = MigrationSource(
                    SourceState(
                        vm_id="vm",
                        hashes=moved,
                        pagestore=pagestore,
                        known_remote=(base_generation, known),
                    ),
                    VECYCLE,
                    config=FAST,
                )
                metrics = await source.migrate(daemon.host, daemon.port)
                return metrics, daemon

        metrics, daemon = asyncio.run(scenario())
        assert metrics.outcome == "completed"
        # A generation that is no longer current gets the authoritative
        # full announce, not a skip.
        assert daemon.telemetry.counter("daemon.announce.full").value == 1
        assert daemon.telemetry.counter("daemon.announce.skipped").value == 0
        control, _ = asyncio.run(migrate_once(moved, moved, None, config=FAST))
        assert metrics.announce_bytes == control.announce_bytes
        assert metrics.payload_bytes == control.payload_bytes


class TestUnverifiableClaims:
    """A claim the daemon cannot match to its current generation gets
    the full ANNOUNCE, never a skip."""

    def test_claim_without_a_generation_gets_the_full_announce(self):
        checkpoint, _, _ = build_vm(seed=51, updates=0)
        codec = FrameCodec(VECYCLE.wire)

        async def scenario():
            async with CheckpointDaemon() as daemon:
                hosted = daemon.install_checkpoint(
                    "vm", Fingerprint(hashes=checkpoint)
                )
                # The retired "I know it" flag, with no generation.
                ready, announce = await exchange(
                    daemon, codec, hello_for(codec, announce_known=True), 2
                )
                return ready, announce, hosted, daemon

        ready, announce, hosted, daemon = asyncio.run(scenario())
        assert ready.type == TYPE_READY and ready.announce_follows
        assert announce.type == TYPE_ANNOUNCE
        assert frozenset(announce.digests) == hosted.distinct
        assert daemon.telemetry.counter("daemon.announce.full").value == 1
        assert daemon.telemetry.counter("daemon.announce.skipped").value == 0

    @pytest.mark.parametrize("claim", ["behind", "evicted", "future"])
    def test_a_non_current_generation_gets_the_full_announce(self, claim):
        checkpoint, _, _ = build_vm(seed=61, updates=0)
        images = [checkpoint]
        for seed in range(62, 68):
            images.append(churn(images[-1], seed=seed))

        async def scenario():
            pagestore = PageStore()
            async with CheckpointDaemon(pagestore=pagestore) as daemon:
                hosted = [
                    daemon.install_checkpoint("vm", Fingerprint(hashes=image))
                    for image in images
                ]
                # One generation behind (another migration landed since),
                # several behind, or one never issued; the source knows
                # the digest set of the generation it names.
                claimed = {"behind": -2, "evicted": 0, "future": -1}[claim]
                known = hosted[claimed].distinct
                generation = hosted[claimed].generation + (claim == "future")
                source = MigrationSource(
                    SourceState(
                        vm_id="vm",
                        hashes=images[-1],
                        pagestore=pagestore,
                        known_remote=(generation, known),
                    ),
                    VECYCLE,
                    config=FAST,
                )
                metrics = await source.migrate(daemon.host, daemon.port)
                return metrics, daemon

        metrics, daemon = asyncio.run(scenario())
        control, _ = asyncio.run(migrate_once(images[-1], images[-1], None))
        assert metrics.outcome == "completed"
        assert daemon.telemetry.counter("daemon.announce.full").value == 1
        assert daemon.telemetry.counter("daemon.announce.skipped").value == 0
        assert metrics.announce_bytes == control.announce_bytes
        assert metrics.payload_bytes == control.payload_bytes


@pytest.mark.parametrize("field, value", [
    ("num_pages", "x"),
    # READY's applied count is a u32.
    ("num_pages", 2**32),
    ("algorithm", "nope"),
    ("page_size", [1]),
    ("base_generation", "x"),
    # Not generation 1: a claim is an integer, and JSON's true is not one.
    ("base_generation", True),
])
def test_a_malformed_hello_is_answered_with_bad_hello(field, value):
    # A bare close would read to the source as a dropped link, retried
    # as a transport fault; ERROR bad-hello fails the migration at once.
    checkpoint, _, _ = build_vm(seed=71, updates=0)
    codec = FrameCodec(VECYCLE.wire)

    async def scenario():
        async with CheckpointDaemon() as daemon:
            # Hosted, so base_generation has a generation to be read against.
            daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
            (reply,) = await exchange(
                daemon, codec, hello_for(codec, **{field: value}), 1
            )
            return reply, daemon

    reply, daemon = asyncio.run(scenario())
    assert reply.type == TYPE_ERROR
    assert reply.body["code"] == "bad-hello"
    assert not daemon._sessions
