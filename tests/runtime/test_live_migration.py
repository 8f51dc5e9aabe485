"""End-to-end tests: real localhost migrations through the runtime."""

import asyncio

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import (
    DEDUP,
    MIYAKODORI,
    QEMU,
    VECYCLE,
    VECYCLE_DEDUP,
)
from repro.mem.pagestore import PageStore
from repro.runtime import (
    CheckpointDaemon,
    MigrationError,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.runtime.faults import FaultInjector

N = 1024
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)


def build_vm(seed: int = 11, updates: int = 100):
    """(checkpoint hashes, current hashes, dirty slot indices)."""
    rng = np.random.default_rng(seed)
    checkpoint = rng.integers(1, 2**62, size=N, dtype=np.uint64)
    dup = rng.choice(N, size=N // 10, replace=False)
    checkpoint[dup] = checkpoint[rng.integers(0, N, size=N // 10)]
    current = checkpoint.copy()
    dirty = np.sort(rng.choice(N, size=updates, replace=False))
    current[dirty] = rng.integers(2**62, 2**63, size=updates, dtype=np.uint64)
    return checkpoint, current, dirty


async def migrate_once(
    strategy,
    checkpoint,
    current,
    dirty,
    daemon_setup=None,
    config=FAST,
    known_remote=False,
    dirty_feed=None,
    pagestore=None,
):
    pagestore = pagestore or PageStore()
    async with CheckpointDaemon(pagestore=pagestore) as daemon:
        if checkpoint is not None:
            daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
        if daemon_setup is not None:
            daemon_setup(daemon)
        source = MigrationSource(
            SourceState(
                vm_id="vm",
                hashes=current,
                pagestore=pagestore,
                dirty_slots=dirty if strategy.method.uses_dirty_tracking else None,
                known_remote=(
                    (daemon.checkpoints["vm"].generation,
                     daemon.checkpoint_digests("vm"))
                    if known_remote
                    else None
                ),
            ),
            strategy,
            config=config,
        )
        metrics = await source.migrate(daemon.host, daemon.port, dirty_feed=dirty_feed)
        return metrics, daemon


class TestFourModes:
    """The ISSUE acceptance matrix: full, dedup, dirty-tracking, VeCycle."""

    @pytest.mark.parametrize(
        "strategy", [QEMU, DEDUP, MIYAKODORI, VECYCLE], ids=lambda s: s.name
    )
    def test_mode_completes_and_image_verifies(self, strategy):
        checkpoint, current, dirty = build_vm()
        needs_ckpt = strategy.method.uses_checkpoint
        metrics, daemon = asyncio.run(
            migrate_once(strategy, checkpoint if needs_ckpt else None, current, dirty)
        )
        assert metrics.outcome == "completed"
        assert metrics.retries == 0
        # The daemon verified the final image digest and stored the new
        # checkpoint, so a hosted checkpoint with the migrated content
        # exists afterwards (the recycling the paper is about).
        store = PageStore()
        expected = [store.digest_for(int(c)) for c in current]
        assert daemon.checkpoints["vm"].slot_digests == expected

    def test_vecycle_moves_less_payload_than_full(self):
        checkpoint, current, dirty = build_vm()
        full, _ = asyncio.run(migrate_once(QEMU, None, current, dirty))
        vec, _ = asyncio.run(migrate_once(VECYCLE, checkpoint, current, dirty))
        assert vec.payload_bytes < full.payload_bytes / 5

    def test_dedup_emits_refs(self):
        checkpoint, current, dirty = build_vm()
        metrics, _ = asyncio.run(migrate_once(DEDUP, None, current, dirty))
        assert metrics.pages_ref > 0
        assert metrics.messages_by_type.get("ref", 0) == metrics.pages_ref


class TestPingPong:
    def test_known_hashes_skip_the_announce(self):
        checkpoint, current, dirty = build_vm()
        with_announce, _ = asyncio.run(
            migrate_once(VECYCLE, checkpoint, current, dirty)
        )
        shortcut, daemon = asyncio.run(
            migrate_once(VECYCLE, checkpoint, current, dirty, known_remote=True)
        )
        assert with_announce.announce_bytes > 0
        assert shortcut.announce_bytes == 0
        # The daemon checked the claimed generation before skipping.
        assert daemon.telemetry.counter("daemon.announce.skipped").value == 1
        assert daemon.telemetry.counter("daemon.announce.full").value == 0
        # Same transfer decisions either way.
        assert shortcut.payload_bytes == with_announce.payload_bytes


class CountingStore(PageStore):
    """A page store that counts its ``digests_for`` calls."""

    calls = 0

    def digests_for(self, content_ids, *args, **kwargs):
        self.calls += 1
        return super().digests_for(content_ids, *args, **kwargs)


class TestHandedDigests:
    """``MigrationSource(digests=)``: per-slot digests the caller already has."""

    @pytest.mark.parametrize("strategy", [VECYCLE, VECYCLE_DEDUP, QEMU],
                             ids=lambda s: s.name)
    def test_the_migration_is_the_same_and_computes_no_digest(self, strategy):
        checkpoint, current, _ = build_vm()
        handed = PageStore().digests_for(current, strategy.checksum)

        async def migrate(digests):
            store = CountingStore()
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
                source = MigrationSource(
                    SourceState(vm_id="vm", hashes=current, pagestore=store),
                    strategy,
                    config=FAST,
                    digests=digests,
                )
                metrics = await source.migrate(daemon.host, daemon.port)
                return (
                    metrics, store.calls, source.final_digests(),
                    daemon.checkpoints["vm"].slot_digests,
                )

        computed, computed_calls, computed_final, computed_image = asyncio.run(
            migrate(None)
        )
        metrics, calls, final, image = asyncio.run(migrate(handed))
        assert computed_calls > 0
        assert calls == 0
        assert metrics.outcome == computed.outcome == "completed"
        assert metrics.bytes_by_type == computed.bytes_by_type
        assert metrics.control_bytes == computed.control_bytes
        assert final == computed_final == frozenset(handed)
        assert image == computed_image == handed

    def test_handed_digests_must_cover_every_slot(self):
        _, current, _ = build_vm()
        with pytest.raises(ValueError, match="digests for"):
            MigrationSource(
                SourceState(vm_id="vm", hashes=current, pagestore=PageStore()),
                VECYCLE,
                digests=PageStore().digests_for(current[:-1]),
            )


class TestDirtyRounds:
    def test_dirty_feed_adds_rounds_and_result_verifies(self):
        checkpoint, current, dirty = build_vm()
        current = current.copy()
        rng = np.random.default_rng(5)

        def feed(round_no):
            if round_no > 3:
                return None
            slots = rng.choice(N, size=20, replace=False)
            current[slots] = rng.integers(
                2**63, 2**64 - 1, size=20, dtype=np.uint64
            )
            return slots

        metrics, daemon = asyncio.run(
            migrate_once(VECYCLE, checkpoint, current, dirty, dirty_feed=feed)
        )
        assert metrics.outcome == "completed"
        assert metrics.num_rounds == 3
        assert metrics.messages_by_type.get("plain", 0) > 0
        store = PageStore()
        assert daemon.checkpoints["vm"].slot_digests == [
            store.digest_for(int(c)) for c in current
        ]


class TestFaultInjection:
    def test_disconnect_mid_transfer_is_retried_and_resumed(self):
        checkpoint, current, dirty = build_vm(updates=400)
        metrics, daemon = asyncio.run(
            migrate_once(
                VECYCLE, checkpoint, current, dirty,
                daemon_setup=lambda d: setattr(
                    d, "faults", FaultInjector(after_messages=100, times=1)
                ),
            )
        )
        assert metrics.outcome == "completed"
        assert metrics.retries == 1
        store = PageStore()
        assert daemon.checkpoints["vm"].slot_digests == [
            store.digest_for(int(c)) for c in current
        ]

    def test_repeated_disconnects_exhaust_retries_with_structured_error(self):
        checkpoint, current, dirty = build_vm(updates=400)
        with pytest.raises(MigrationError) as excinfo:
            asyncio.run(
                migrate_once(
                    VECYCLE, checkpoint, current, dirty,
                    daemon_setup=lambda d: setattr(
                        d, "faults", FaultInjector(after_messages=10, times=100)
                    ),
                )
            )
        err = excinfo.value
        assert err.code == "transport"
        assert err.metrics is not None
        assert err.metrics.outcome == "failed"
        assert err.metrics.retries == FAST.retry.max_attempts - 1

    def test_silent_server_times_out_instead_of_hanging(self):
        async def main():
            async def black_hole(reader, writer):
                try:
                    await asyncio.sleep(3600)
                finally:
                    writer.close()

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            async with server:
                _, current, _ = build_vm()
                source = MigrationSource(
                    SourceState("vm", current, PageStore()),
                    QEMU,
                    config=RuntimeConfig(
                        io_timeout_s=0.1,
                        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.01),
                    ),
                )
                with pytest.raises(MigrationError) as excinfo:
                    await source.migrate(host, port)
                assert excinfo.value.code == "transport"

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_connection_refused_is_a_structured_failure(self):
        async def main():
            # Bind-then-close gives a port with nothing listening.
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            server.close()
            await server.wait_closed()
            _, current, _ = build_vm()
            source = MigrationSource(
                SourceState("vm", current, PageStore()),
                QEMU,
                config=RuntimeConfig(
                    retry=RetryPolicy(max_attempts=2, base_backoff_s=0.01)
                ),
            )
            with pytest.raises(MigrationError) as excinfo:
                await source.migrate(host, port)
            assert excinfo.value.code == "transport"
            assert excinfo.value.metrics.retries == 1

        asyncio.run(main())


class TestConcurrentMigrations:
    def test_one_daemon_receives_two_vms_at_once(self):
        async def main():
            pagestore = PageStore()
            rng = np.random.default_rng(17)
            async with CheckpointDaemon(pagestore=pagestore) as daemon:
                sources = []
                for vm_id in ("vm-a", "vm-b"):
                    hashes = rng.integers(1, 2**62, size=N, dtype=np.uint64)
                    sources.append(
                        (
                            hashes,
                            MigrationSource(
                                SourceState(vm_id, hashes, pagestore),
                                QEMU,
                                config=FAST,
                            ),
                        )
                    )
                results = await asyncio.gather(
                    *(s.migrate(daemon.host, daemon.port) for _, s in sources)
                )
                for (hashes, _), metrics in zip(sources, results):
                    assert metrics.outcome == "completed"
                store = PageStore()
                for (hashes, source), _ in zip(sources, results):
                    assert daemon.checkpoints[
                        source.state.vm_id
                    ].slot_digests == [store.digest_for(int(c)) for c in hashes]

        asyncio.run(main())


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.5)
        delays = [policy.backoff(i) for i in range(5)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[4] == 0.5  # capped

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
