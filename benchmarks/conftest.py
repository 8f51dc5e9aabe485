"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at full
scale and asserts the *shape* of the result (who wins, by roughly what
factor, where crossovers fall).  Traces are generated once per session
and cached on disk under ``benchmarks/.trace-cache``.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.traces.generate import Trace, generate_or_load
from repro.traces.presets import MachineSpec

CACHE_DIR = Path(__file__).parent / ".trace-cache"
SNAPSHOT_PATH = Path(__file__).parent.parent / "BENCH_observability.json"


@pytest.fixture(scope="session")
def trace_cache():
    """Loader: machine spec -> full-length cached trace."""

    def load(spec: MachineSpec, num_epochs: int | None = None) -> Trace:
        return generate_or_load(spec, CACHE_DIR, num_epochs=num_epochs)

    return load


def once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under the benchmark timer.

    The experiments are deterministic end-to-end runs taking seconds;
    repeating them would only waste wall-clock without changing the
    regenerated numbers.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _observability_snapshot() -> dict:
    """Traced reduced-scale runs of the Fig. 6 and Fig. 8 experiments.

    Small enough to add seconds, not minutes, to a benchmark session;
    big enough that the wall time and byte counts move when the models
    or the instrumentation regress.
    """
    from repro.core.transfer import Method
    from repro.experiments import fig6_best_case, fig8_vdi
    from repro.obs import get_registry, get_tracer, summary_tree

    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enable()
    tracer.reset()
    registry = get_registry()
    registry.reset()
    try:
        started = time.perf_counter()
        rows = fig6_best_case.run(sizes_mib=(512,))
        fig6_wall_s = time.perf_counter() - started

        started = time.perf_counter()
        vdi = fig8_vdi.run(num_epochs=48 * 12)
        fig8_wall_s = time.perf_counter() - started

        records = tracer.finished()
        spans_by_name: dict = {}
        for record in records:
            spans_by_name[record.name] = spans_by_name.get(record.name, 0) + 1
        return {
            "fig6_idle_vm": {
                "size_mib": 512,
                "wall_s": round(fig6_wall_s, 4),
                "cells": [
                    {
                        "link": row.link,
                        "strategy": row.strategy,
                        "modelled_time_s": round(row.time_s, 4),
                        "tx_bytes": int(row.report.tx_bytes),
                    }
                    for row in rows
                ],
            },
            "fig8_vdi": {
                "epochs": 48 * 12,
                "wall_s": round(fig8_wall_s, 4),
                "migrations": vdi.num_migrations,
                "bytes_by_method": {
                    method.value: int(vdi.total_bytes(method))
                    for method in (Method.FULL, Method.DEDUP,
                                   Method.DIRTY_DEDUP, Method.HASHES_DEDUP)
                },
            },
            "spans_by_name": dict(sorted(spans_by_name.items())),
            "metrics": registry.snapshot(),
            "summary_tree": summary_tree(records).splitlines(),
        }
    finally:
        tracer.reset()
        if not was_enabled:
            tracer.disable()
        registry.reset()


def _telemetry_snapshot() -> dict:
    """A telemetry-enabled live ping-pong replay: the aggregator polls
    real daemons over the wire after every migration and the Prometheus
    endpoint is served and scraped.  Asserts the aggregator's share of
    wall time stays within the 5% observability overhead contract.
    """
    import asyncio

    from repro.cluster.schedule import ping_pong_schedule
    from repro.obs import get_registry
    from repro.orchestrator import replay_vdi_live
    from repro.runtime import RetryPolicy, RuntimeConfig
    from repro.traces.generate import generate_trace
    from repro.traces.presets import MachineSpec
    from repro.traces.workload import ActivityPattern, WorkloadParams

    spec = MachineSpec(
        name="Tiny",
        os="Linux",
        trace_id="bench-telemetry",
        ram_bytes=2048 * 4096,
        trace_days=1,
        params=WorkloadParams(
            num_pages=2048,
            stable_fraction=0.2,
            hot_fraction=0.3,
            hot_write_share=0.8,
            base_update_fraction=0.3,
            duplicate_fraction=0.08,
            zero_fraction=0.03,
            relocate_fraction=0.01,
            recall_fraction=0.2,
            activity=ActivityPattern.DIURNAL,
            activity_floor=0.05,
        ),
        seed=99,
    )
    trace = generate_trace(spec, num_epochs=48)
    config = RuntimeConfig(
        io_timeout_s=5.0,
        connect_timeout_s=5.0,
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
        time_scale=0.0,
    )
    registry = get_registry()
    registry.reset()
    try:
        started = time.perf_counter()
        result = asyncio.run(
            replay_vdi_live(
                trace,
                schedule=ping_pong_schedule(4.0, 6, host_a="a", host_b="b"),
                config=config,
                metrics_port=0,
            )
        )
        wall_s = time.perf_counter() - started
    finally:
        registry.reset()
    telemetry = result.telemetry
    assert telemetry["polls"] > 0
    assert telemetry["overhead_ratio"] <= 0.05, (
        f"aggregator overhead {telemetry['overhead_ratio']:.2%} exceeds "
        f"the 5% contract: {telemetry}"
    )
    return {
        "migrations": result.num_migrations,
        "wall_s": round(wall_s, 4),
        "polls": telemetry["polls"],
        "poll_failures": telemetry["poll_failures"],
        "restarts": telemetry["restarts"],
        "seq_gaps": telemetry["seq_gaps"],
        "poll_seconds": round(telemetry["poll_seconds"], 4),
        "overhead_ratio": round(telemetry["overhead_ratio"], 4),
        "recycle_ratio": round(telemetry["recycle_ratio"], 4),
        "prometheus_served": result.metrics_port is not None
        and result.metrics_port > 0,
    }


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write the observability perf snapshot after a benchmark session."""
    if getattr(session.config.option, "collectonly", False):
        return
    try:
        snapshot = _observability_snapshot()
        snapshot["telemetry"] = _telemetry_snapshot()
    except Exception as exc:  # never fail the session over the snapshot
        snapshot = {"error": f"{type(exc).__name__}: {exc}"}
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
