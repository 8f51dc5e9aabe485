"""Live-vs-analytic cross-validation of the orchestrated VDI replay.

:func:`~repro.cluster.vdi.replay_vdi` computes what the Figure-8 VDI
schedule *should* cost; :func:`replay_vdi_live` actually runs it — real
daemons on localhost, real sockets, placements chosen by a live policy
— and compares aggregate migration traffic.  The two agree because
they model the same physics: before each departure the source host
stores a checkpoint of the leaving VM's state (VeCycle's "local
storage is cheap" premise, §3.3), so a checkpoint-seeking policy sends
the VM back to the host holding the previous migration's state, and
the wire then carries exactly the pages the analytic pair model counts
as full transfers.

The harness uses the same :func:`~repro.cluster.vdi.fingerprint_at`
snapshot selection as the analytic replay, so any disagreement is a
protocol/planner/placement bug, not a sampling artifact.
"""

from __future__ import annotations

import asyncio
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.schedule import MigrationEvent, vdi_schedule
from repro.cluster.vdi import fingerprint_at, replay_vdi
from repro.core.strategies import MigrationStrategy, VECYCLE_DEDUP
from repro.mem.pagestore import PageStore
from repro.obs import names
from repro.obs.log import get_logger
from repro.obs.prometheus import MetricsServer
from repro.obs.telemetry import set_active_aggregator
from repro.obs.trace import span as _span
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.executor import (
    AdmissionLimits,
    MigrationExecutor,
    MigrationOutcome,
)
from repro.orchestrator.placement import BestCheckpoint, PlacementPolicy
from repro.orchestrator.registry import ClusterRegistry
from repro.orchestrator.telemetry import TelemetryAggregator
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.source import RuntimeConfig
from repro.traces.generate import Trace

log = get_logger(__name__)


@dataclass(frozen=True)
class LiveVdiRecord:
    """One orchestrated migration next to its analytic prediction."""

    index: int
    event: MigrationEvent
    destination: str
    score: float
    live_full_pages: int
    live_bytes: float
    analytic_bytes: float
    downtime_s: float = 0.0
    recycled_bytes: float = 0.0


@dataclass
class LiveVdiCrossValidation:
    """Aggregate comparison of the live and analytic VDI replays."""

    method: str
    policy: str
    ram_bytes: int
    records: List[LiveVdiRecord] = field(default_factory=list)
    outcomes: List[MigrationOutcome] = field(default_factory=list)
    metrics_port: Optional[int] = None
    prometheus_text: str = ""
    wall_time_s: float = 0.0
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_migrations(self) -> int:
        return len(self.records)

    @property
    def live_total_bytes(self) -> float:
        return sum(r.live_bytes for r in self.records)

    @property
    def analytic_total_bytes(self) -> float:
        return sum(r.analytic_bytes for r in self.records)

    @property
    def relative_error(self) -> float:
        """|live − analytic| / analytic over the whole schedule."""
        analytic = self.analytic_total_bytes
        if analytic == 0:
            return 0.0 if self.live_total_bytes == 0 else float("inf")
        return abs(self.live_total_bytes - analytic) / analytic

    def within(self, tolerance: float = 0.05) -> bool:
        """Whether aggregate live traffic is within ``tolerance``."""
        return self.relative_error <= tolerance

    def summary(self) -> str:
        """One-line human-readable verdict for CLI output."""
        return (
            f"live {self.live_total_bytes / 2**30:.3f} GiB vs analytic "
            f"{self.analytic_total_bytes / 2**30:.3f} GiB over "
            f"{self.num_migrations} migrations "
            f"({self.method}, policy {self.policy}): "
            f"relative error {self.relative_error * 100:.2f}%"
        )


async def replay_vdi_live(
    trace: Trace,
    schedule: Optional[Sequence[MigrationEvent]] = None,
    policy: Optional[PlacementPolicy] = None,
    strategy: MigrationStrategy = VECYCLE_DEDUP,
    config: Optional[RuntimeConfig] = None,
    limits: Optional[AdmissionLimits] = None,
    extra_hosts: Sequence[str] = ("standby",),
    state_root: Optional[Path] = None,
    vm_id: str = "vdi-vm",
    metrics_port: Optional[int] = None,
    metrics_linger_s: float = 0.0,
) -> LiveVdiCrossValidation:
    """Replay the VDI schedule through live daemons; compare to analytic.

    Boots one :class:`~repro.runtime.daemon.CheckpointDaemon` per host
    named in the schedule (plus ``extra_hosts`` decoys the policy must
    learn to avoid), registers them, and drives every scheduled
    migration through the orchestrator.  The schedule's *source* hosts
    are ground truth for where the VM sits; destinations are whatever
    the policy picks — the comparison holds regardless, because the
    analytic model depends only on consecutive fingerprints.

    Telemetry: a :class:`~repro.orchestrator.telemetry.
    TelemetryAggregator` polls every daemon after each migration and is
    registered as the run's active aggregator (so ``--trace-out`` JSONL
    gains the cluster time series).  With ``metrics_port`` set (0 for
    ephemeral), the controller additionally serves its merged Prometheus
    page over HTTP for the whole run plus ``metrics_linger_s`` seconds
    after the last migration — long enough for an external scraper to
    catch it — and the scraped exposition text is returned on the
    result.

    Raises RuntimeError if any live migration fails outright; a mere
    traffic mismatch is reported, not raised.
    """
    if schedule is None:
        days = int(trace.duration_hours // 24) + 1
        schedule = vdi_schedule(days)
    if not schedule:
        raise ValueError("schedule is empty")
    events = sorted(schedule, key=lambda e: e.time_hours)
    host_names = sorted(
        {e.source for e in events}
        | {e.destination for e in events}
        | set(extra_hosts)
    )
    pagestore = PageStore()
    policy = policy if policy is not None else BestCheckpoint()
    registry = ClusterRegistry()
    orchestrator = Orchestrator(
        registry,
        policy,
        executor=MigrationExecutor(limits),
        strategy=strategy,
        config=config or RuntimeConfig(),
        pagestore=pagestore,
    )
    aggregator = TelemetryAggregator(registry)
    set_active_aggregator(aggregator)
    metrics_server: Optional[MetricsServer] = None
    prometheus_text = ""
    bound_port: Optional[int] = None
    outcomes: List[MigrationOutcome] = []
    daemons: Dict[str, CheckpointDaemon] = {}
    started = time.monotonic()
    try:
        for name in host_names:
            daemon = CheckpointDaemon(
                name=name,
                pagestore=pagestore,
                state_dir=(state_root / name) if state_root is not None else None,
            )
            await daemon.start()
            daemons[name] = daemon
            registry.register(name, daemon.host, daemon.port)
        if metrics_port is not None:
            metrics_server = MetricsServer(
                render_text=aggregator.render_prometheus,
                render_json=aggregator.dashboard_view,
                port=metrics_port,
            ).start()
            bound_port = metrics_server.port
            log.info("serving metrics", url=metrics_server.url)

        location = events[0].source
        orchestrator.locations[vm_id] = location
        live: List[dict] = []
        with _span(
            "orchestrator.vdi_replay",
            migrations=len(events),
            hosts=len(host_names),
            policy=policy.name,
        ):
            for index, event in enumerate(events):
                fingerprint, _ = fingerprint_at(trace, event.time_hours)
                # The §3.3 departure checkpoint: the source keeps the
                # leaving state on local storage.  This is what a later
                # migration back to this host will recycle.
                daemons[location].install_checkpoint(
                    vm_id, fingerprint, algorithm=strategy.checksum
                )
                decision, outcome = await orchestrator.migrate_vm(
                    vm_id, fingerprint.hashes, source_host=location
                )
                if outcome is None or not outcome.ok:
                    detail = outcome.error if outcome is not None else "deferred"
                    raise RuntimeError(
                        f"live VDI migration {index} "
                        f"({location} → {decision.destination!r}) failed: "
                        f"{detail}"
                    )
                num_pages = int(fingerprint.hashes.shape[0])
                live.append(
                    {
                        "destination": decision.destination,
                        "score": decision.score,
                        "full_pages": outcome.metrics.pages_full,
                        "num_pages": num_pages,
                    }
                )
                outcomes.append(outcome)
                location = decision.destination
                names.ORCHESTRATOR_CROSSVAL_MIGRATIONS.add(1)
                await aggregator.poll_all()
        if metrics_server is not None:
            if metrics_linger_s > 0:
                await asyncio.sleep(metrics_linger_s)
            prometheus_text = await asyncio.to_thread(
                _scrape, metrics_server.url
            )
        else:
            prometheus_text = aggregator.render_prometheus()
    finally:
        if metrics_server is not None:
            metrics_server.stop()
        await registry.close()
        for daemon in daemons.values():
            await daemon.stop()
    wall_time_s = time.monotonic() - started

    analytic = replay_vdi(trace, schedule=events, methods=(strategy.method,))
    result = LiveVdiCrossValidation(
        method=strategy.method.value,
        policy=policy.name,
        ram_bytes=analytic.ram_bytes,
        outcomes=outcomes,
        metrics_port=bound_port,
        prometheus_text=prometheus_text,
        wall_time_s=wall_time_s,
        telemetry={
            "polls": aggregator.polls,
            "poll_failures": aggregator.poll_failures,
            "restarts": aggregator.restarts,
            "seq_gaps": aggregator.seq_gaps,
            "poll_seconds": aggregator.poll_seconds,
            "overhead_ratio": (
                aggregator.poll_seconds / wall_time_s if wall_time_s else 0.0
            ),
            "recycle_ratio": aggregator.recycle_ratio(),
        },
    )
    for index, (event, row, record, outcome) in enumerate(
        zip(events, live, analytic.records, outcomes)
    ):
        page_bytes = analytic.ram_bytes / row["num_pages"]
        sink = outcome.metrics.sink_stats if outcome.metrics else {}
        reused = sink.get("reused_in_place", 0) + sink.get("reused_from_store", 0)
        result.records.append(
            LiveVdiRecord(
                index=index,
                event=event,
                destination=row["destination"],
                score=row["score"],
                live_full_pages=row["full_pages"],
                live_bytes=row["full_pages"] * page_bytes,
                analytic_bytes=record.fractions[strategy.method]
                * analytic.ram_bytes,
                downtime_s=outcome.downtime_s,
                recycled_bytes=reused * page_bytes,
            )
        )
    log.info(
        "live VDI cross-validation finished",
        migrations=result.num_migrations,
        relative_error=round(result.relative_error, 6),
    )
    return result


def _scrape(url: str) -> str:
    """Fetch the exposition page over real HTTP (runs in a thread)."""
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read().decode("utf-8")


def run_live_vdi_crossval(*args, **kwargs) -> LiveVdiCrossValidation:
    """Synchronous wrapper around :func:`replay_vdi_live`."""
    return asyncio.run(replay_vdi_live(*args, **kwargs))
