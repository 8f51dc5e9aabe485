"""DIGEST_DELTA manifests engage only when the daemon can prove the
source's base generation, and fall back to the full announce after a
restart loses the in-memory delta history."""

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
from repro.runtime.frames import TYPE_ANNOUNCE, TYPE_READY

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


class TestDeltaManifest:
    def test_stale_generation_gets_delta_not_full_announce(self):
        checkpoint, _, _ = build_vm(seed=21, updates=0)
        moved = churn(checkpoint, seed=22)

        async def scenario():
            pagestore = PageStore()
            async with CheckpointDaemon(pagestore=pagestore) as daemon:
                first = daemon.install_checkpoint(
                    "vm", Fingerprint(hashes=checkpoint)
                )
                known = daemon.checkpoint_digests("vm")
                # The checkpoint moves on (another migration landed) —
                # the source's knowledge is now one generation stale.
                daemon.install_checkpoint("vm", Fingerprint(hashes=moved))
                source = MigrationSource(
                    SourceState(
                        vm_id="vm",
                        hashes=moved,
                        pagestore=pagestore,
                        known_remote=(first.generation, known),
                    ),
                    VECYCLE,
                    config=FAST,
                )
                metrics = await source.migrate(daemon.host, daemon.port)
                return metrics, daemon

        metrics, daemon = asyncio.run(scenario())
        control, _ = asyncio.run(migrate_once(moved, moved, None, config=FAST))

        assert metrics.outcome == "completed"
        assert daemon.telemetry.counter("daemon.announce.delta").value == 1
        assert daemon.telemetry.counter("daemon.announce.full").value == 0
        # The ratio reaches the daemon's own TELEMETRY snapshot, not
        # only the process registry.
        ratio = daemon.telemetry.snapshot().instruments["manifest.delta_ratio"]
        assert ratio["total"] == 1 and 0 < ratio["sum"] < 0.5
        # O(churn) manifest: far smaller than the full announce the
        # control migration paid for the same checkpoint.
        assert control.announce_bytes > 0
        assert metrics.announce_bytes < 0.5 * control.announce_bytes
        # And the stale knowledge plus delta reconstructed the true
        # announced set: pages already hosted were not re-sent.
        assert metrics.payload_bytes == control.payload_bytes

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
            # Restart: generations recover from the durable manifests,
            # the in-memory delta history does not.
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
        # The unprovable base generation produced the authoritative full
        # manifest, not a delta and not a skip.
        assert daemon.telemetry.counter("daemon.announce.full").value == 1
        assert daemon.telemetry.counter("daemon.announce.delta").value == 0
        control, _ = asyncio.run(migrate_once(moved, moved, None, config=FAST))
        assert metrics.announce_bytes == control.announce_bytes


class TestUnverifiableClaims:
    """A claim the daemon cannot match to its current generation or to
    its delta history gets the full ANNOUNCE, never a skip."""

    def test_claim_without_a_generation_gets_the_full_announce(self):
        checkpoint, _, _ = build_vm(seed=51, updates=0)
        codec = FrameCodec(VECYCLE.wire)

        async def scenario():
            async with CheckpointDaemon() as daemon:
                hosted = daemon.install_checkpoint(
                    "vm", Fingerprint(hashes=checkpoint)
                )
                reader, writer = await asyncio.open_connection(
                    daemon.host, daemon.port
                )
                try:
                    # The retired "I know it" flag, with no generation.
                    writer.write(codec.encode_hello({
                        "session": "vm-claim",
                        "vm_id": "vm",
                        "num_pages": N,
                        "mode": VECYCLE.method.value,
                        "page_size": codec.page_size,
                        "digest_size": codec.digest_size,
                        "algorithm": VECYCLE.checksum.name,
                        "announce_known": True,
                    }))
                    await writer.drain()
                    ready = await codec.read_frame(reader.readexactly)
                    announce = await codec.read_frame(reader.readexactly)
                finally:
                    writer.close()
                    await writer.wait_closed()
                return ready, announce, hosted, daemon

        ready, announce, hosted, daemon = asyncio.run(scenario())
        assert ready.type == TYPE_READY and ready.announce_follows
        assert announce.type == TYPE_ANNOUNCE
        assert frozenset(announce.digests) == hosted.distinct
        assert daemon.telemetry.counter("daemon.announce.full").value == 1
        assert daemon.telemetry.counter("daemon.announce.skipped").value == 0

    @pytest.mark.parametrize("claim", ["evicted", "future"])
    def test_generation_outside_the_history_gets_the_full_announce(self, claim):
        checkpoint, _, _ = build_vm(seed=61, updates=0)
        images = [checkpoint]
        for seed in range(62, 68):
            images.append(churn(images[-1], seed=seed))

        async def scenario():
            pagestore = PageStore()
            async with CheckpointDaemon(pagestore=pagestore) as daemon:
                first = daemon.install_checkpoint(
                    "vm", Fingerprint(hashes=images[0])
                )
                known = first.distinct
                for image in images[1:]:
                    hosted = daemon.install_checkpoint(
                        "vm", Fingerprint(hashes=image)
                    )
                # Older than the delta history reaches, or never issued.
                generation = (
                    first.generation if claim == "evicted" else hosted.generation + 1
                )
                assert generation not in daemon._delta_history["vm"]
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
        assert daemon.telemetry.counter("daemon.announce.delta").value == 0
        assert daemon.telemetry.counter("daemon.announce.skipped").value == 0
        assert metrics.announce_bytes == control.announce_bytes
        assert metrics.payload_bytes == control.payload_bytes
