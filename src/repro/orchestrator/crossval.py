"""Live-vs-analytic cross-validation of the orchestrated VDI replay.

:func:`~repro.cluster.vdi.replay_vdi` computes what the Figure-8 VDI
schedule *should* cost; :func:`replay_vdi_live` actually runs it — real
daemons on localhost, real sockets, placements chosen by a live policy
— and compares every migration's full-page count exactly.  The two
agree because they model the same physics: before each departure the
source host stores a checkpoint of the leaving VM's state (VeCycle's
"local storage is cheap" premise, §3.3), so a checkpoint-seeking policy
sends the VM back to the host holding the previous migration's state,
and the wire then carries exactly the pages the analytic pair model
counts as full transfers.

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
from repro.obs import names
from repro.obs.log import get_logger
from repro.obs.prometheus import MetricsServer
from repro.obs.trace import span as _span
from repro.orchestrator.cluster import LiveCluster
from repro.orchestrator.executor import MigrationOutcome
from repro.orchestrator.placement import PlacementPolicy
from repro.runtime.source import RuntimeConfig
from repro.traces.generate import Trace

log = get_logger(__name__)

#: The one VM the replay migrates.
VM_ID = "vdi-vm"


@dataclass(frozen=True)
class LiveVdiRecord:
    """One orchestrated migration next to its analytic prediction."""

    index: int
    event: MigrationEvent
    destination: str
    score: float
    live_full_pages: int
    analytic_full_pages: int
    downtime_s: float = 0.0
    recycled_bytes: float = 0.0


@dataclass
class LiveVdiCrossValidation:
    """Per-hop comparison of the live and analytic VDI replays."""

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
    def exact_migrations(self) -> int:
        """Migrations that sent exactly the full pages the model counts."""
        return sum(r.live_full_pages == r.analytic_full_pages for r in self.records)

    def within(self) -> bool:
        """Whether every migration matched the model exactly."""
        return self.exact_migrations == self.num_migrations

    def summary(self) -> str:
        """One-line human-readable verdict for CLI output."""
        return (
            f"{self.exact_migrations} of {self.num_migrations} migrations "
            f"sent exactly the analytic full pages "
            f"({self.method}, policy {self.policy})"
        )


async def replay_vdi_live(
    trace: Trace,
    schedule: Optional[Sequence[MigrationEvent]] = None,
    policy: Optional[PlacementPolicy] = None,
    strategy: MigrationStrategy = VECYCLE_DEDUP,
    config: Optional[RuntimeConfig] = None,
    extra_hosts: Sequence[str] = ("standby",),
    state_root: Optional[Path] = None,
    metrics_port: Optional[int] = None,
    metrics_linger_s: float = 0.0,
) -> LiveVdiCrossValidation:
    """Replay the VDI schedule through live daemons; compare to analytic.

    Boots a :class:`~repro.orchestrator.cluster.LiveCluster` of one
    daemon per host named in the schedule (plus ``extra_hosts`` decoys
    the policy must learn to avoid) and drives every scheduled migration
    of the one VM, ``vdi-vm``, through its orchestrator.  The schedule's *source* hosts
    are ground truth for where the VM sits; destinations are whatever
    the policy picks — the comparison holds regardless, because the
    analytic model depends only on consecutive fingerprints.

    Telemetry: a :class:`~repro.orchestrator.telemetry.
    TelemetryAggregator` polls every daemon after each migration, and
    the result carries its rendered Prometheus page.  With
    ``metrics_port`` set (0 for ephemeral) — the deployment setting
    behind ``vecycle orchestrate --metrics-port`` — the controller
    serves that page over HTTP for the whole run plus
    ``metrics_linger_s`` seconds after the last migration, long enough
    for an external scraper to catch it, and the text on the result is
    scraped from it.

    Raises RuntimeError if any live migration fails outright; a mere
    traffic mismatch is reported (:meth:`LiveVdiCrossValidation.within`),
    not raised.
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
    cluster = LiveCluster(
        host_names,
        policy=policy,
        strategy=strategy,
        config=config,
        state_root=state_root,
    )
    orchestrator, aggregator = cluster.orchestrator, cluster.aggregator
    policy = orchestrator.policy
    metrics_server: Optional[MetricsServer] = None
    prometheus_text = ""
    bound_port: Optional[int] = None
    outcomes: List[MigrationOutcome] = []
    started = time.monotonic()
    async with cluster:
        try:
            if metrics_port is not None:
                metrics_server = MetricsServer(
                    render_text=aggregator.render_prometheus,
                    render_json=aggregator.dashboard_view,
                    port=metrics_port,
                ).start()
                bound_port = metrics_server.port
                log.info("serving metrics", url=metrics_server.url)

            location = events[0].source
            orchestrator.locations[VM_ID] = location
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
                    # leaving state on local storage.  This is what a
                    # later migration back to this host will recycle.
                    cluster.daemons[location].install_checkpoint(
                        VM_ID, fingerprint, algorithm=strategy.checksum
                    )
                    decision, outcome = await orchestrator.migrate_vm(
                        VM_ID, fingerprint.hashes, source_host=location
                    )
                    if not outcome.ok:
                        raise RuntimeError(
                            f"live VDI migration {index} "
                            f"({location} → {decision.destination!r}) failed: "
                            f"{outcome.error}"
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
                prometheus_text = await asyncio.to_thread(_scrape, metrics_server.url)
            else:
                prometheus_text = aggregator.render_prometheus()
        finally:
            if metrics_server is not None:
                metrics_server.stop()
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
                # The fraction is full pages over num_pages; round()
                # undoes the division exactly.
                analytic_full_pages=round(
                    record.fractions[strategy.method] * row["num_pages"]
                ),
                downtime_s=outcome.downtime_s,
                recycled_bytes=reused * page_bytes,
            )
        )
    log.info(
        "live VDI cross-validation finished",
        migrations=result.num_migrations,
        exact=result.exact_migrations,
    )
    return result


def _scrape(url: str) -> str:
    """Fetch the exposition page over real HTTP (runs in a thread)."""
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.read().decode("utf-8")


def run_live_vdi_crossval(*args, **kwargs) -> LiveVdiCrossValidation:
    """Synchronous wrapper around :func:`replay_vdi_live`."""
    return asyncio.run(replay_vdi_live(*args, **kwargs))
