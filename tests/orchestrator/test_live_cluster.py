"""End-to-end control plane tests over real localhost daemons."""

import asyncio

import numpy as np
import pytest

from repro.cluster.schedule import ping_pong_schedule, vdi_schedule
from repro.core.fingerprint import Fingerprint
from repro.core.strategies import QEMU
from repro.experiments import live_cluster
from repro.mem.pagestore import PageStore
from repro.obs.metrics import get_registry
from repro.orchestrator import (
    SKETCH_K,
    BestCheckpoint,
    ClusterRegistry,
    LiveCluster,
    MigrationExecutor,
    available_policies,
    replay_vdi_live,
)
from repro.runtime import (
    CheckpointDaemon,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.runtime.faults import FaultInjector

N = 512
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)


def retrying(max_attempts):
    """``FAST`` timeouts with a budget of ``max_attempts`` connections."""
    return RuntimeConfig(
        io_timeout_s=5.0,
        connect_timeout_s=5.0,
        retry=RetryPolicy(max_attempts=max_attempts, base_backoff_s=0.001),
        time_scale=0.0,
    )


# One connection only: the first disconnect ends the migration.
NO_RETRY = retrying(1)


def build_hashes(seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 2**62, size=N, dtype=np.uint64)


class TestRegistryHeartbeat:
    def test_heartbeat_reports_capacity_and_checkpoints(self):
        async def main():
            pagestore = PageStore()
            async with CheckpointDaemon(name="a", pagestore=pagestore) as daemon:
                daemon.install_checkpoint("vm", Fingerprint(hashes=build_hashes()))
                registry = ClusterRegistry()
                registry.register("a", daemon.host, daemon.port)
                record = await registry.poll("a")
                await registry.close()
                assert record.alive
                inventory = record.inventory
                assert inventory.active_sessions == 0
                assert list(inventory.checkpoints) == ["vm"]
                assert inventory.checkpoints["vm"] == tuple(
                    daemon.checkpoints["vm"].sketch
                )
                assert len(inventory.checkpoints["vm"]) == SKETCH_K
                assert registry.view().hosts() == ["a"]

        asyncio.run(main())

    def test_dead_host_is_marked_and_revived(self):
        async def main():
            async with LiveCluster(["a"], heartbeat_timeout_s=1.0) as cluster:
                registry = cluster.registry
                assert (await registry.poll("a")).alive
                await cluster.daemons["a"].stop()
                record = await registry.poll("a")
                assert not record.alive
                assert record.consecutive_failures == 1
                assert registry.view().hosts() == []
                # The daemon comes back on the same port: next poll revives.
                await cluster.restart("a")
                assert (await registry.poll("a")).alive

        asyncio.run(main())


class TestLiveCluster:
    def test_restart_in_place(self, tmp_path):
        hashes = build_hashes()

        async def main():
            async with LiveCluster(["a", "b"], state_root=tmp_path) as cluster:
                registry = cluster.registry
                first = cluster.daemons["a"]
                first.install_checkpoint("vm", Fingerprint(hashes=hashes))
                before = (await registry.poll("a")).inventory.checkpoints["vm"]
                reborn = await cluster.restart("a")
                assert reborn is cluster.daemons["a"] and reborn is not first
                # The old port was free, so the restart took it again.
                assert reborn.port == first.port
                assert registry.address_of("a") == (reborn.host, reborn.port)
                # Recovered from state_root/a, digests and all.
                assert list(reborn.checkpoints) == ["vm"]
                record = await registry.poll("a")
                assert record.alive
                assert record.inventory.checkpoints["vm"] == before
                # The retired incarnation answered one heartbeat: folded.
                assert cluster.instruments["daemon.heartbeats"]["value"] == 1
            return cluster.instruments

        instruments = asyncio.run(main())
        assert (tmp_path / "a" / "manifests").is_dir()
        # Teardown folds the live ones, the retired one not again.
        assert instruments["daemon.heartbeats"]["value"] == 2


class TestMidResultDisconnect:
    """ISSUE S2: RESULT replay without double-counted recovery."""

    def test_executor_retry_replays_result_idempotently(self, tmp_path):
        get_registry().reset()
        hashes = build_hashes()

        async def main():
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                daemon.faults = FaultInjector(times=1, mid_result=True)
                source = MigrationSource(
                    SourceState("vm", hashes, PageStore()),
                    QEMU,
                    config=retrying(3),
                )
                executor = MigrationExecutor()
                outcome = await executor.run(
                    source, "host", daemon.host, daemon.port
                )
                return outcome, daemon

        outcome, daemon = asyncio.run(main())
        registry = get_registry()
        # The first connection carried every page and the session
        # committed before the injected abort; the second got a pure
        # RESULT replay — nothing re-sent, nothing re-adopted.
        assert outcome.ok
        assert outcome.attempts == 2
        assert daemon.telemetry.counter("daemon.result_replays").value == 1
        assert daemon.telemetry.counter("daemon.sessions.completed").value == 1
        assert registry.counter("orchestrator.migrations.retried").value == 1
        # No daemon restart happened, so nothing was ever recovered.
        assert registry.counter("repo.recovered_checkpoints").value == 0
        store = PageStore()
        assert daemon.checkpoints["vm"].slot_digests == [
            store.digest_for(int(c)) for c in hashes
        ]

    def test_restart_after_mid_result_counts_recovery_once(self, tmp_path):
        get_registry().reset()
        hashes = build_hashes()

        async def first_life():
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                daemon.faults = FaultInjector(times=1, mid_result=True)
                source = MigrationSource(
                    SourceState("vm", hashes, PageStore()),
                    QEMU,
                    config=NO_RETRY,
                )
                source.session_id = "vm-sticky"
                with pytest.raises(Exception):
                    await source.migrate(daemon.host, daemon.port)

        asyncio.run(first_life())
        registry = get_registry()
        assert registry.counter("repo.recovered_checkpoints").value == 0

        async def second_life():
            # The daemon restarts; a source reconnecting with the same
            # session gets the replay.
            async with CheckpointDaemon(state_dir=tmp_path) as daemon:
                source = MigrationSource(
                    SourceState("vm", hashes, PageStore()),
                    QEMU,
                    config=retrying(2),
                )
                source.session_id = "vm-sticky"
                executor = MigrationExecutor()
                outcome = await executor.run(
                    source, "host", daemon.host, daemon.port
                )
                return outcome, daemon

        outcome, daemon = asyncio.run(second_life())
        assert outcome.ok
        assert outcome.metrics.payload_bytes == 0  # pure replay
        # Recovery ran exactly once (the restart), and the replay did
        # not re-adopt — so the counter stays at one checkpoint.
        assert registry.counter("repo.recovered_checkpoints").value == 1
        assert daemon.telemetry.counter("daemon.result_replays").value == 1


class TestLiveVdiCrossValidation:
    """Every hop sends exactly the full pages the analytic replay counts."""

    def test_ping_pong_schedule_matches_analytic(self, tiny_trace):
        get_registry().reset()
        schedule = ping_pong_schedule(
            4.0, 6, host_a="workstation", host_b="consolidation-server"
        )
        result = asyncio.run(
            replay_vdi_live(
                tiny_trace,
                schedule=schedule,
                policy=BestCheckpoint(),
                config=FAST,
            )
        )
        assert result.num_migrations == 6
        assert result.within(), result.summary()
        # The paper's point: recycling makes later migrations cheap.
        assert result.records[1].live_full_pages < result.records[0].live_full_pages
        # After the first (fallback) placement, the sketches steer every
        # migration to the host holding the previous state.
        assert all(r.score > 0 for r in result.records[1:])
        # Acceptance: the orchestrator metrics are visible.
        names = get_registry().names()
        assert "orchestrator.placements" in names
        assert "orchestrator.migrations.active" in names
        assert "orchestrator.score.best-checkpoint" in names
        assert (
            get_registry().counter("orchestrator.placements").value
            == result.num_migrations
        )

    def test_figure8_vdi_schedule_matches_analytic(self, tiny_trace):
        schedule = vdi_schedule(1)  # one weekday: morning + evening
        result = asyncio.run(
            replay_vdi_live(tiny_trace, schedule=schedule, config=FAST)
        )
        assert result.num_migrations == 2
        assert result.within(), result.summary()

    @pytest.mark.parametrize("policy", available_policies())
    def test_demo_replay_under_every_policy(self, policy):
        result = live_cluster.run(
            hosts=3, migrations=6, policy=policy, num_pages=256
        )
        assert result.policy == policy
        assert result.num_migrations == 6
        assert result.within(), result.summary()
        if policy == "destination-swap":
            # record_migration is fed by migrate_vm on real daemons:
            # after the first (fallback) hop, every hop swaps back to
            # the host the VM last left.
            visited = [result.records[0].event.source] + [
                r.destination for r in result.records
            ]
            for i, record in enumerate(result.records[1:], start=1):
                assert record.score == 1.0
                assert record.destination == visited[i - 1]


class TestOrchestratedPlacement:
    def test_three_host_cluster_prefers_checkpoint_holder(self):
        async def main():
            hashes = build_hashes()
            async with LiveCluster(["a", "b", "c"], config=FAST) as cluster:
                # Host c already holds the VM's history; a and b do not.
                cluster.daemons["c"].install_checkpoint(
                    "vm", Fingerprint(hashes=hashes)
                )
                orchestrator = cluster.orchestrator
                decision, outcome = await orchestrator.migrate_vm(
                    "vm", hashes, source_host="a"
                )
                assert decision.destination == "c"
                assert decision.score > 0.9
                assert outcome.ok
                # Checksums only — the pages were already there.
                assert outcome.metrics.pages_full == 0
                assert orchestrator.locations["vm"] == "c"

        asyncio.run(main())
