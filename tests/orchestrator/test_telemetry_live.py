"""The telemetry plane over real daemons: the ISSUE acceptance tests."""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.schedule import ping_pong_schedule
from repro.core.strategies import QEMU
from repro.mem.pagestore import PageStore
from repro.obs import flight
from repro.obs.flight import FLIGHT_DIR_ENV, read_dump
from repro.obs.metrics import get_registry
from repro.obs.prometheus import parse_exposition
from repro.obs.telemetry import set_active_aggregator
from repro.orchestrator import (
    BestCheckpoint,
    ClusterRegistry,
    MigrationExecutor,
    TelemetryAggregator,
    replay_vdi_live,
)
from repro.runtime import (
    CheckpointDaemon,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)

N = 512
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)
NO_RETRY = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=1, base_backoff_s=0.01),
    time_scale=0.0,
)


def build_hashes(seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 2**62, size=N, dtype=np.uint64)


def labelled(series, key):
    """Sum a parsed exposition series over samples carrying ``key``."""
    return sum(
        value
        for labels, value in series.items()
        if any(k == key for k, _ in labels)
    )


class TestLivePrometheusAcceptance:
    """Ping-pong with --metrics-port: scraped series match MigrationMetrics."""

    def test_scraped_exposition_matches_run_metrics(self, tiny_trace):
        get_registry().reset()
        schedule = ping_pong_schedule(4.0, 6, host_a="a", host_b="b")
        result = asyncio.run(
            replay_vdi_live(
                tiny_trace,
                schedule=schedule,
                policy=BestCheckpoint(),
                config=FAST,
                metrics_port=0,
            )
        )
        set_active_aggregator(None)
        assert result.metrics_port and result.metrics_port > 0
        # prometheus_text was scraped over real HTTP from the bound port.
        parsed = parse_exposition(result.prometheus_text)

        # Recycled/transferred bytes: per-host wire series vs the run's
        # MigrationMetrics sink stats, within 1%.
        recycled = labelled(parsed["vecycle_recycled_bytes_total"], "host")
        expected_recycled = sum(r.recycled_bytes for r in result.records)
        assert expected_recycled > 0
        assert recycled == pytest.approx(expected_recycled, rel=0.01)
        # The per-VM label dimension carries the same total.
        assert labelled(
            parsed["vecycle_recycled_bytes_total"], "vm"
        ) == pytest.approx(expected_recycled, rel=0.01)

        transferred = labelled(
            parsed["vecycle_transferred_bytes_total"], "host"
        )
        expected_transferred = sum(
            o.metrics.payload_bytes for o in result.outcomes
        )
        assert transferred == pytest.approx(expected_transferred, rel=0.01)

        # Downtime histogram: _sum and _count match the outcomes.
        downtime_sum = sum(
            parsed["vecycle_migration_downtime_seconds_sum"].values()
        )
        expected_downtime = sum(o.downtime_s for o in result.outcomes)
        assert expected_downtime > 0
        assert downtime_sum == pytest.approx(expected_downtime, rel=0.01)
        count = sum(
            parsed["vecycle_migration_downtime_seconds_count"].values()
        )
        assert count == result.num_migrations
        inf_buckets = [
            value
            for labels, value in parsed[
                "vecycle_migration_downtime_seconds_bucket"
            ].items()
            if ("le", "+Inf") in labels
        ]
        assert sum(inf_buckets) == result.num_migrations

    def test_aggregator_overhead_within_five_percent(self, tiny_trace):
        get_registry().reset()
        schedule = ping_pong_schedule(4.0, 6, host_a="a", host_b="b")
        result = asyncio.run(
            replay_vdi_live(
                tiny_trace, schedule=schedule, config=FAST, metrics_port=0
            )
        )
        set_active_aggregator(None)
        telemetry = result.telemetry
        assert telemetry["polls"] > 0
        assert telemetry["poll_failures"] == 0
        assert telemetry["overhead_ratio"] <= 0.05, telemetry
        assert 0.0 < telemetry["recycle_ratio"] < 1.0


class TestFlightRecorderAcceptance:
    """A daemon killed mid-run leaves a parseable dump with RESULT spans."""

    def test_killed_daemon_dump_contains_result_phase(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        hashes = build_hashes()

        async def main():
            async with CheckpointDaemon(name="victim") as daemon:
                source = MigrationSource(
                    SourceState("vm", hashes, PageStore()),
                    QEMU,
                    config=FAST,
                )
                await source.migrate(daemon.host, daemon.port)
                # The process dies here: SIGUSR2/excepthook would call
                # dump_all exactly like this before the state is lost.
                return flight.dump_all("simulated kill")

        paths = asyncio.run(main())
        victim_dumps = [p for p in paths if "daemon-victim" in p]
        assert victim_dumps, paths
        dump = read_dump(victim_dumps[0])
        assert dump["header"]["name"] == "daemon-victim"
        kinds = [event["kind"] for event in dump["events"]]
        assert "session" in kinds
        results = [
            event for event in dump["events"]
            if event["kind"] == "daemon.result"
        ]
        assert results, kinds
        assert results[-1]["ok"] is True
        assert results[-1]["vm"] == "vm"
        assert results[-1]["pages_received"] == N

    def test_failed_outcome_carries_flight_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        get_registry().reset()
        hashes = build_hashes()

        async def main():
            async with CheckpointDaemon(name="flaky") as daemon:
                daemon.inject_disconnect(after_messages=5)
                source = MigrationSource(
                    SourceState("vm", hashes, PageStore()),
                    QEMU,
                    config=NO_RETRY,
                )
                executor = MigrationExecutor()
                return await executor.run(
                    source, "host", daemon.host, daemon.port
                )

        outcome = asyncio.run(main())
        assert not outcome.ok
        assert outcome.flight_record is not None
        dump = read_dump(outcome.flight_record)
        failures = [
            event for event in dump["events"]
            if event["kind"] == "migration.failed"
        ]
        assert failures and failures[-1]["vm"] == "vm"


class TestAggregatorOverWire:
    def test_restart_detection_preserves_accumulated_history(self):
        async def main():
            registry = ClusterRegistry()
            aggregator = TelemetryAggregator(registry)
            hashes = build_hashes()

            first = CheckpointDaemon(name="a")
            await first.start()
            registry.register("a", first.host, first.port)
            source = MigrationSource(
                SourceState("vm", hashes, PageStore()), QEMU, config=FAST
            )
            await source.migrate(first.host, first.port)
            first.telemetry.histogram("test.seconds", (1.0, 10.0)).observe(0.5)
            snapshot = await aggregator.poll("a")
            assert snapshot is not None and snapshot.seq >= 1
            before = aggregator.host_instruments()["a"]
            received_before = before["daemon.pages_received"]["value"]
            assert received_before == N
            port = first.port
            await first.stop()

            # Restart: counters begin again from zero on the same address.
            reborn = CheckpointDaemon(name="a")
            await reborn.start(port=port)
            try:
                source = MigrationSource(
                    SourceState("vm2", hashes, PageStore()),
                    QEMU,
                    config=FAST,
                )
                await source.migrate(reborn.host, reborn.port)
                for value in (5.0, 50.0):
                    reborn.telemetry.histogram("test.seconds", (1.0, 10.0)).observe(value)
                await aggregator.poll("a")
            finally:
                await reborn.stop()
            assert aggregator.restarts == 1
            after = aggregator.host_instruments()["a"]
            # History from before the restart plus the new life's counts:
            # nothing already aggregated was lost or double-counted.
            assert after["daemon.pages_received"]["value"] == 2 * N
            hist = after["test.seconds"]
            assert hist["counts"] == [1, 1, 1]
            assert hist["total"] == 3
            assert hist["sum"] == pytest.approx(55.5)
            assert hist["min"] == 0.5 and hist["max"] == 50.0
            # Per-VM rollup: one VM per incarnation, both kept.
            per_vm = aggregator.per_vm()
            assert set(per_vm) == {"vm", "vm2"}
            assert per_vm["vm"]["sessions_completed"] == 1
            assert per_vm["vm2"]["sessions_completed"] == 1
            assert sum(v["transferred_bytes"] for v in per_vm.values()) == (
                after["daemon.transferred_bytes"]["value"]
            )

        asyncio.run(main())

    def test_a_garbled_reply_is_a_failed_poll(self, monkeypatch):
        """A reply that is JSON but not a snapshot fails that poll only."""
        garbled = [
            ["not", "a", "snapshot"],
            {"seq": "x"},
            {"per_vm": [1]},
            {"seq": 99, "instruments": {"daemon.heartbeats": {"type": "counter"}}},
        ]

        async def main():
            registry = ClusterRegistry()
            aggregator = TelemetryAggregator(registry)
            async with CheckpointDaemon(name="bad") as bad, CheckpointDaemon(
                name="good"
            ) as good:
                registry.register("bad", bad.host, bad.port)
                registry.register("good", good.host, good.port)
                try:
                    first = await aggregator.poll_all()
                    assert first["bad"] is not None
                    for body in garbled:
                        monkeypatch.setattr(
                            bad.telemetry,
                            "snapshot",
                            lambda body=body: SimpleNamespace(to_dict=lambda: body),
                        )
                        results = await aggregator.poll_all()
                        assert results["bad"] is None, body
                        assert results["good"] is not None, body
                finally:
                    await registry.close()
            assert aggregator.poll_failures == len(garbled)
            assert aggregator.polls == 2 * (len(garbled) + 1)

        asyncio.run(main())

    def test_unreachable_daemon_counts_a_failure(self):
        async def main():
            registry = ClusterRegistry(heartbeat_timeout_s=0.5)
            aggregator = TelemetryAggregator(registry)
            async with CheckpointDaemon(name="gone") as daemon:
                registry.register("gone", daemon.host, daemon.port)
            # stopped: the address no longer answers
            snapshot = await aggregator.poll("gone")
            assert snapshot is None
            assert aggregator.poll_failures == 1
            assert aggregator.host_instruments() == {}

        asyncio.run(main())

    def test_daemon_answers_telemetry_probe_without_session(self):
        async def main():
            registry = ClusterRegistry()
            aggregator = TelemetryAggregator(registry)
            async with CheckpointDaemon(name="idle") as daemon:
                registry.register("idle", daemon.host, daemon.port)
                one = await aggregator.poll("idle")
                two = await aggregator.poll("idle")
                assert one is not None and two is not None
                assert two.seq == one.seq + 1
                assert two.host == "idle"
                probes = two.instruments["daemon.telemetry_probes"]
                assert probes["value"] == 2.0

        asyncio.run(main())
