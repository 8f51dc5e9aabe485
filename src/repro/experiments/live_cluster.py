"""Live cluster demo: the orchestrator driving real localhost daemons.

Boots a small fleet of :class:`~repro.runtime.daemon.CheckpointDaemon`
processes-in-miniature (one asyncio server per "host"), replays a
migration schedule through the :mod:`repro.orchestrator` control plane,
and cross-validates the observed wire traffic against the analytic
:func:`~repro.cluster.vdi.replay_vdi` prediction.  This is the
end-to-end proof that registry, placement, admission control, and the
migration protocol compose into the behaviour the paper models.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.cluster.schedule import ping_pong_schedule, vdi_schedule
from repro.core.strategies import VECYCLE_DEDUP, MigrationStrategy
from repro.obs import names
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.orchestrator import LiveVdiCrossValidation, get_policy, run_live_vdi_crossval
from repro.runtime.source import RetryPolicy, RuntimeConfig
from repro.traces.generate import generate_trace
from repro.traces.presets import MachineSpec
from repro.traces.workload import ActivityPattern, WorkloadParams

log = get_logger(__name__)


#: Orchestrator metrics surfaced in the report.
REPORTED_COUNTERS = (
    names.ORCHESTRATOR_PLACEMENTS,
    names.ORCHESTRATOR_MIGRATIONS_COMPLETED,
    names.ORCHESTRATOR_MIGRATIONS_RETRIED,
    names.ORCHESTRATOR_MIGRATIONS_FAILED,
)


def demo_machine(num_pages: int = 2048, trace_days: float = 1.0, seed: int = 99) -> MachineSpec:
    """A small diurnal desktop-like machine for fast live demos."""
    params = WorkloadParams(
        num_pages=num_pages,
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
    )
    return MachineSpec(
        name="Demo desktop",
        os="Linux",
        trace_id="live-demo",
        ram_bytes=num_pages * 4096,
        trace_days=trace_days,
        params=params,
        seed=seed,
    )


def run(
    hosts: int = 3,
    migrations: int = 6,
    policy: str = "best-checkpoint",
    strategy: MigrationStrategy = VECYCLE_DEDUP,
    vdi: bool = False,
    days: int = 1,
    interval_hours: float = 4.0,
    num_pages: int = 2048,
    num_epochs: Optional[int] = None,
    state_root: Optional[Path] = None,
    seed: int = 99,
    metrics_port: Optional[int] = None,
    metrics_linger_s: float = 0.0,
) -> LiveVdiCrossValidation:
    """Boot ``hosts`` daemons and orchestrate a live schedule.

    The default schedule ping-pongs one VM between two named hosts,
    with the remaining daemons acting as decoys the placement policy
    must learn to avoid.  With ``vdi=True`` the Figure-8 weekday
    schedule (9 am out, 5 pm back) is replayed instead.

    ``metrics_port`` (0 for an ephemeral port) serves the controller's
    merged Prometheus page for the duration of the run plus
    ``metrics_linger_s`` seconds, so external scrapers and ``vecycle
    top`` can watch it live.
    """
    if hosts < 2:
        raise ValueError(f"need at least 2 hosts, got {hosts}")
    machine = demo_machine(
        num_pages=num_pages, trace_days=max(1, days), seed=seed
    )
    log.info(
        "generating demo trace", pages=num_pages, days=machine.trace_days
    )
    trace = generate_trace(machine, num_epochs=num_epochs)
    if vdi:
        schedule = vdi_schedule(days)
    else:
        schedule = ping_pong_schedule(interval_hours, migrations)
    extra = tuple(f"standby-{i}" for i in range(1, hosts - 1))
    return run_live_vdi_crossval(
        trace,
        schedule=schedule,
        policy=get_policy(policy),
        strategy=strategy,
        config=RuntimeConfig(
            time_scale=0.0,
            retry=RetryPolicy(max_attempts=6, base_backoff_s=0.02),
        ),
        extra_hosts=extra,
        state_root=state_root,
        metrics_port=metrics_port,
        metrics_linger_s=metrics_linger_s,
    )


def format_table(result: LiveVdiCrossValidation) -> str:
    """Per-migration placements next to the analytic prediction."""
    lines = [
        f"live cluster replay, policy {result.policy}, "
        f"method {result.method}:",
        "",
        f"{'#':>3s} {'migration':<34s} {'score':>6s} "
        f"{'live pages':>10s} {'analytic pages':>14s}",
        "-" * 70,
    ]
    for record in result.records:
        direction = (
            f"{record.event.source[:15]}->{record.destination[:15]}"
        )
        lines.append(
            f"{record.index:3d} {direction:<34s} {record.score:6.3f} "
            f"{record.live_full_pages:10d} "
            f"{record.analytic_full_pages:14d}"
        )
    lines += ["", result.summary()]
    verdict = "PASS" if result.within() else "FAIL"
    lines.append(f"per-hop full-page cross-validation: {verdict}")
    emitted = set(get_registry().names())
    lines.append("")
    lines.append("orchestrator metrics:")
    for counter in REPORTED_COUNTERS:
        if counter.name in emitted:
            lines.append(f"  {counter.name:<36s} {counter.on().value}")
    score = names.ORCHESTRATOR_SCORE.labelled(result.policy)
    if score.name in emitted:
        histogram = score.on()
        lines.append(
            f"  {score.name:<36s} n={histogram.total} "
            f"mean={histogram.mean:.3f}"
        )
    if result.telemetry:
        telemetry = result.telemetry
        lines.append("")
        lines.append("telemetry plane:")
        lines.append(
            f"  polls {telemetry.get('polls', 0)}  "
            f"failures {telemetry.get('poll_failures', 0)}  "
            f"restarts {telemetry.get('restarts', 0)}  "
            f"seq gaps {telemetry.get('seq_gaps', 0)}"
        )
        lines.append(
            f"  recycle ratio {telemetry.get('recycle_ratio', 0.0) * 100:.1f}%  "
            f"aggregator overhead "
            f"{telemetry.get('overhead_ratio', 0.0) * 100:.2f}% of wall time"
        )
        if result.metrics_port is not None:
            lines.append(
                f"  prometheus served on 127.0.0.1:{result.metrics_port} "
                "(/metrics, /metrics.json)"
            )
    return "\n".join(lines)
