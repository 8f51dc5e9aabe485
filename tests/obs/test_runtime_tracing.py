"""Tracing a real live migration: span coverage and wall-time parity."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE
from repro.mem.pagestore import PageStore
from repro.obs import get_registry, get_tracer, to_chrome_trace
from repro.runtime import (
    CheckpointDaemon,
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


def _build_vm(seed: int = 11, updates: int = 100, pages: int = N):
    rng = np.random.default_rng(seed)
    checkpoint = rng.integers(1, 2**62, size=pages, dtype=np.uint64)
    current = checkpoint.copy()
    dirty = np.sort(rng.choice(pages, size=updates, replace=False))
    current[dirty] = rng.integers(2**62, 2**63, size=updates, dtype=np.uint64)
    return checkpoint, current


async def _migrate_traced(daemon_setup=None, pages: int = N, updates: int = 100):
    checkpoint, current = _build_vm(updates=updates, pages=pages)
    pagestore = PageStore(cache_limit=2 * pages)
    async with CheckpointDaemon(pagestore=pagestore) as daemon:
        daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
        if daemon_setup is not None:
            daemon_setup(daemon)
        source = MigrationSource(
            SourceState(vm_id="vm", hashes=current, pagestore=pagestore),
            VECYCLE,
            config=FAST,
        )
        return await source.migrate(daemon.host, daemon.port)


@pytest.fixture
def traced_migration():
    tracer = get_tracer()
    tracer.enable()
    daemons = []
    metrics = asyncio.run(_migrate_traced(daemons.append))
    return metrics, tracer.finished(), daemons[0]


def _children_of(records, parent_id):
    return [r for r in records if r.parent_id == parent_id and r.kind == "span"]


def test_live_migration_emits_expected_spans(traced_migration):
    _, records, _ = traced_migration
    names = {r.name for r in records}
    assert {"runtime.migrate", "connect", "announce", "round", "complete",
            "close", "daemon.session", "daemon.announce",
            "daemon.round"} <= names
    migrate = next(r for r in records if r.name == "runtime.migrate")
    child_names = [r.name for r in _children_of(records, migrate.span_id)]
    for expected in ("connect", "announce", "round", "complete", "close"):
        assert expected in child_names
    assert migrate.attrs["outcome"] == "completed"
    assert migrate.attrs["vm"] == "vm"
    # source and daemon run as distinct asyncio tasks -> distinct lanes
    daemon_session = next(r for r in records if r.name == "daemon.session")
    assert daemon_session.task != migrate.task


def test_child_span_durations_match_wall_time_within_1_percent():
    # 8 MiB, every page rewritten: ~100 ms of wall time.  What the child
    # spans leave out (span bookkeeping, freeing an attempt's per-page
    # tables) is 0.1-0.3 ms here and grows with the page count, not the
    # churn; against the ~10 ms of a mostly idle 4 MiB VM it came to
    # 0.5-1.4% on its own.
    tracer = get_tracer()
    tracer.enable()
    metrics = asyncio.run(_migrate_traced(pages=2 * N, updates=2 * N))
    records = tracer.finished()
    migrate = next(r for r in records if r.name == "runtime.migrate")
    summed = sum(r.duration_s for r in _children_of(records, migrate.span_id))
    assert metrics.wall_time_s > 0
    assert summed == pytest.approx(metrics.wall_time_s, rel=0.01), (
        f"child spans sum to {summed:.6f}s but the migration measured "
        f"{metrics.wall_time_s:.6f}s"
    )


def test_retry_span_recorded_on_disconnect():
    tracer = get_tracer()
    tracer.enable()
    metrics = asyncio.run(
        _migrate_traced(
            daemon_setup=lambda d: setattr(
                d, "faults", FaultInjector(after_messages=10, times=1)
            )
        )
    )
    assert metrics.retries >= 1
    records = tracer.finished()
    retries = [r for r in records if r.name == "retry"]
    assert retries, "no retry span despite a mid-transfer disconnect"
    assert retries[0].attrs["attempt"] == 1
    migrate = next(r for r in records if r.name == "runtime.migrate")
    assert retries[0].parent_id == migrate.span_id
    # the reconnect produced a second connect span under the same parent
    connects = [r for r in _children_of(records, migrate.span_id)
                if r.name == "connect"]
    assert len(connects) >= 2


def test_runtime_metrics_in_the_process_registry_sessions_in_the_daemons_registry(traced_migration):
    metrics, _, daemon = traced_migration
    snapshot = get_registry().snapshot()
    assert snapshot["runtime.migrations.completed"]["value"] == 1
    counted = sum(
        snapshot[f"runtime.bytes.{kind}"]["value"]
        for kind in metrics.bytes_by_type
    )
    assert counted == metrics.payload_bytes
    assert snapshot["runtime.round_seconds"]["total"] == metrics.num_rounds
    assert daemon.telemetry.counter("daemon.sessions.completed").value == 1


def test_chrome_export_of_live_migration_is_wellformed(traced_migration):
    _, records, _ = traced_migration
    trace = json.loads(json.dumps(to_chrome_trace(records, get_registry().snapshot())))
    events = trace["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans, "no complete events exported"
    for event in spans:
        assert event["dur"] >= 0
        assert event["ts"] >= 0
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
    lanes = {e["args"]["name"] for e in events if e["ph"] == "M"
             and e["name"] == "thread_name"}
    assert len(lanes) >= 2  # source task and daemon task
