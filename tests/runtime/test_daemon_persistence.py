"""Daemon durability: checkpoints and sessions survive a restart.

The acceptance scenario from the ISSUE: a daemon given a ``state_dir``
persists every committed checkpoint; killing it between a checkpoint
write and the manifest rename loses at most the in-flight checkpoint;
restart recovers prior checkpoints bit-identically; a deliberately
corrupted record is quarantined, not fatal; and a source reconnecting
with its session token after the restart still gets its RESULT.
"""

import asyncio
import gc

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import QEMU, VECYCLE
from repro.mem.pagestore import PageStore
from repro.runtime import (
    CheckpointDaemon,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.storage.repository import (
    CheckpointRepository,
    CrashPoint,
    RepositoryError,
)
from tests.storage.test_repository import open_descriptors_under

N = 512
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)


class KillNine(BaseException):
    """Simulated hard kill of the daemon process."""


def build_vm(seed=3, updates=60):
    rng = np.random.default_rng(seed)
    checkpoint = rng.integers(1, 2**62, size=N, dtype=np.uint64)
    current = checkpoint.copy()
    dirty = np.sort(rng.choice(N, size=updates, replace=False))
    current[dirty] = rng.integers(2**62, 2**63, size=updates, dtype=np.uint64)
    return checkpoint, current, dirty


async def migrate(daemon, current, pagestore, strategy=QEMU, session_id=None):
    source = MigrationSource(
        SourceState(vm_id="vm", hashes=current, pagestore=pagestore),
        strategy,
        config=FAST,
    )
    if session_id is not None:
        source.session_id = session_id
    metrics = await source.migrate(daemon.host, daemon.port)
    return metrics, source


def expected_digests(current):
    store = PageStore()
    return [store.digest_for(int(c)) for c in current]


class TestRestartRecovery:
    def test_checkpoint_survives_restart_bit_identically(self, tmp_path):
        _, current, _ = build_vm()

        async def first_life():
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                metrics, _ = await migrate(daemon, current, PageStore())
                assert metrics.outcome == "completed"

        asyncio.run(first_life())

        reborn = CheckpointDaemon(state_dir=tmp_path)
        assert reborn.checkpoints["vm"].slot_digests == expected_digests(current)
        # Page bytes recovered bit-identically from the packs.
        pagestore = PageStore()
        for content_id in current[:32]:
            digest = pagestore.digest_for(int(content_id))
            assert reborn.store.get(digest) == pagestore.page_bytes(int(content_id))

    def test_restarted_daemon_serves_recycled_migration(self, tmp_path):
        checkpoint, current, dirty = build_vm()

        async def first_life():
            pagestore = PageStore()
            async with CheckpointDaemon(
                pagestore=pagestore, state_dir=tmp_path
            ) as daemon:
                await migrate(daemon, checkpoint, pagestore)

        asyncio.run(first_life())

        async def second_life():
            pagestore = PageStore()
            async with CheckpointDaemon(
                pagestore=pagestore, state_dir=tmp_path
            ) as daemon:
                # The recovered checkpoint feeds the §3.2 announce: a
                # VeCycle migration after restart reuses recycled pages.
                metrics, _ = await migrate(
                    daemon, current, pagestore, strategy=VECYCLE
                )
                return metrics

        metrics = asyncio.run(second_life())
        assert metrics.outcome == "completed"
        assert metrics.pages_checksum_only > 0
        assert metrics.payload_bytes < N * 4096 / 5

    def test_completed_session_result_replays_after_restart(self, tmp_path):
        _, current, _ = build_vm()

        async def first_life():
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                metrics, source = await migrate(
                    daemon, current, PageStore(), session_id="vm-sticky"
                )
                assert metrics.outcome == "completed"

        asyncio.run(first_life())

        async def reconnect_after_restart():
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                assert "vm-sticky" in daemon._sessions
                metrics, _ = await migrate(
                    daemon, current, PageStore(), session_id="vm-sticky"
                )
                return metrics

        metrics = asyncio.run(reconnect_after_restart())
        # The replayed RESULT reports the original migration: completed
        # without re-sending any page.
        assert metrics.outcome == "completed"
        assert metrics.payload_bytes == 0


class TestCrashMidCommit:
    def test_kill_between_write_and_rename_loses_only_inflight(self, tmp_path):
        checkpoint, current, _ = build_vm()

        async def first_life():
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                await migrate(daemon, checkpoint, PageStore())

        asyncio.run(first_life())

        doomed = CheckpointDaemon(state_dir=tmp_path)

        def hook(point):
            if point == CrashPoint.MANIFEST_WRITTEN:
                raise KillNine(point)

        doomed.repository.fault_hook = hook
        with pytest.raises(KillNine):
            doomed.install_checkpoint(
                "vm", Fingerprint(hashes=current, timestamp=1.0)
            )

        reborn = CheckpointDaemon(state_dir=tmp_path)
        # The previously committed checkpoint is intact; the in-flight
        # replacement never committed.
        assert reborn.checkpoints["vm"].slot_digests == expected_digests(
            checkpoint
        )


class TestCorruptionQuarantine:
    def test_corrupt_segment_quarantined_daemon_still_starts(self, tmp_path):
        _, current, _ = build_vm()

        async def first_life():
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                await migrate(daemon, current, PageStore())

        asyncio.run(first_life())

        repository = CheckpointRepository(tmp_path)
        repository.recover()
        assert repository.corrupt_segment(expected_digests(current)[0])
        repository.close()

        reborn = CheckpointDaemon(state_dir=tmp_path)
        assert "vm" not in reborn.checkpoints  # quarantined, not fatal
        assert list(reborn.repository.quarantine_dir.iterdir())

        async def still_serves():
            async with reborn:
                metrics, _ = await migrate(reborn, current, PageStore())
                return metrics

        assert asyncio.run(still_serves()).outcome == "completed"
        fresh = CheckpointDaemon(state_dir=tmp_path)
        assert fresh.checkpoints["vm"].slot_digests == expected_digests(current)


class TestHandleLifetime:
    """A pack descriptor left open after the state directory is removed
    pins its blocks; neither ``stop()`` nor a dropped daemon may leak one."""

    def test_stop_closes_the_repository(self, tmp_path):
        _, current, _ = build_vm()

        async def life():
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                await migrate(daemon, current, PageStore())
                assert open_descriptors_under(tmp_path)
            return daemon

        daemon = asyncio.run(life())
        assert not open_descriptors_under(tmp_path)
        with pytest.raises(RepositoryError):
            daemon.repository.put_page(b"d" * 16, b"page")

    def test_a_daemon_dropped_without_stop_releases_its_descriptors(self, tmp_path):
        _, current, _ = build_vm()
        daemon = CheckpointDaemon(state_dir=tmp_path)
        daemon.install_checkpoint("vm", Fingerprint(hashes=current, timestamp=1.0))
        assert open_descriptors_under(tmp_path)
        del daemon
        gc.collect()
        assert not open_descriptors_under(tmp_path)
