"""The chaos soak: a live cluster under a seeded fault schedule.

Boots real localhost daemons, replays a ping-pong or VDI migration
schedule through the full orchestrator control plane, injects the
scheduled fault each round, and runs the
:class:`~repro.chaos.invariants.InvariantChecker` after every round.
Faults may fail individual migrations — that is allowed and recorded —
but a broken invariant means the cluster's accounting is corrupt, and
the run reports it.

Determinism: the schedule, the dirty-page mutations, every fault
parameter, and every protocol byte are functions of the seed.  Wall
clock only decides *how long* the run takes (stalls, backoffs), never
*what happens*, so :meth:`SoakReport.signature` is stable across runs
of the same seed and a failing seed reproduces on a laptop or in CI.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.chaos.invariants import InvariantChecker
from repro.chaos.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.cluster.schedule import (
    MigrationEvent,
    ping_pong_schedule,
    vdi_schedule,
)
from repro.net.link import WAN_CLOUDNET
from repro.obs import names
from repro.obs.log import get_logger
from repro.orchestrator import get_policy
from repro.orchestrator.cluster import LiveCluster
from repro.orchestrator.placement import PlacementError
from repro.runtime.faults import FaultInjector
from repro.runtime.source import RetryPolicy, RuntimeConfig

log = get_logger(__name__)

#: Source-side read timeout the stall faults are calibrated against.
IO_TIMEOUT_S = 0.4
#: Stall just over the timeout: must look like a dead peer (transport
#: retry), not corrupt anything.
STALL_OVER_S = 0.9
#: Stall just under the timeout: must NOT fail; the migration absorbs
#: the latency in one attempt.
STALL_UNDER_S = 0.05
#: The soak's source side.
SOAK_CONFIG = RuntimeConfig(
    io_timeout_s=IO_TIMEOUT_S,
    connect_timeout_s=2.0,
    time_scale=0.0,
    # One budget for the migration's one reconnect loop; sized so a
    # RESTART round outlasts the daemon's stop + recover.
    retry=RetryPolicy(
        max_attempts=24,
        base_backoff_s=0.02,
        max_backoff_s=0.25,
        jitter=0.25,
    ),
)


@dataclass
class RoundRecord:
    """What one soak round did and how the cluster answered."""

    round_no: int
    vm_id: str
    fault: Optional[str]
    destination: Optional[str]
    ok: bool
    deferred: bool
    attempts: int
    error_code: Optional[str]
    generation: Optional[int]

    def signature(self) -> dict:
        """The seed-deterministic view of this round.

        ``attempts`` — connections the migration opened — is excluded:
        during a daemon restart it depends on how fast the restart
        raced the one reconnect loop, which is wall-clock, not seed.
        """
        return {
            "round": self.round_no,
            "vm": self.vm_id,
            "fault": self.fault,
            "destination": self.destination,
            "ok": self.ok,
            "deferred": self.deferred,
            "error_code": self.error_code,
            "generation": self.generation,
        }


@dataclass
class SoakReport:
    """The outcome of one seeded soak run."""

    seed: int
    hosts: int
    num_pages: int
    schedule: FaultSchedule
    records: List[RoundRecord] = field(default_factory=list)
    faults_injected: Dict[str, int] = field(default_factory=dict)
    faults_skipped: int = 0
    restarts: int = 0
    violations: List[str] = field(default_factory=list)
    #: Every daemon incarnation's final registry, folded (not part of
    #: the signature: stall and retry timings are wall-clock).
    daemon_instruments: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every invariant held (migrations may still fail)."""
        return not self.violations

    @property
    def rounds(self) -> int:
        return len(self.records)

    @property
    def migrations_ok(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def migrations_failed(self) -> int:
        return sum(1 for r in self.records if not r.ok and not r.deferred)

    @property
    def deferred(self) -> int:
        return sum(1 for r in self.records if r.deferred)

    def signature(self) -> dict:
        """Everything the seed fully determines (replay comparisons)."""
        return {
            "seed": self.seed,
            "hosts": self.hosts,
            "num_pages": self.num_pages,
            "schedule": self.schedule.to_json(),
            "rounds": [record.signature() for record in self.records],
            "faults_injected": dict(self.faults_injected),
            "faults_skipped": self.faults_skipped,
            "violations": list(self.violations),
        }

    def to_dict(self) -> dict:
        """The signature plus wall-clock-dependent fields (JSON output)."""
        data = self.signature()
        data["restarts"] = self.restarts
        data["migrations_ok"] = self.migrations_ok
        data["migrations_failed"] = self.migrations_failed
        data["deferred"] = self.deferred
        data["invariants_ok"] = self.ok
        return data


class _Soak:
    """One run's rounds and ledgers over a booted :class:`LiveCluster`."""

    def __init__(
        self,
        cluster: LiveCluster,
        seed: int,
        events: List[MigrationEvent],
        schedule: FaultSchedule,
        num_pages: int,
    ) -> None:
        self.cluster = cluster
        self.events = events
        self.schedule = schedule
        self.num_pages = num_pages
        self.vm_id = "desktop-0"
        self.base_config = cluster.orchestrator.config
        self.checker = InvariantChecker()
        self.report = SoakReport(
            seed=seed,
            hosts=len(cluster.names),
            num_pages=num_pages,
            schedule=schedule,
        )
        # The VM image: slots drawn from a bounded content pool, so
        # dirty rewrites recall old content and recycling stays
        # interesting (duplicates, reuse-from-store hits).
        self.rng = np.random.default_rng(seed + 0x5EED)
        self.pool = self.rng.integers(
            1, 2**63, size=max(4, num_pages // 2), dtype=np.uint64
        )
        self.hashes = self.pool[
            self.rng.integers(0, len(self.pool), size=num_pages)
        ]

    # --- per-round machinery --------------------------------------------

    def _mutate_hashes(self, gap_hours: float) -> None:
        dirty = max(
            self.num_pages // 8,
            min(self.num_pages // 2, int(self.num_pages * 0.02 * gap_hours)),
        )
        slots = self.rng.choice(self.num_pages, size=dirty, replace=False)
        self.hashes[slots] = self.pool[
            self.rng.integers(0, len(self.pool), size=dirty)
        ]

    def _target_host(self, spec: FaultSpec) -> str:
        return self.cluster.names[spec.host_index % len(self.cluster.names)]

    def _arm(self, spec: Optional[FaultSpec]) -> Optional[FaultInjector]:
        """Install the round's fault; returns the daemon-side injector.

        One injector *instance* is shared by every daemon for the
        migration-path faults: only the destination serves the HELLO,
        so sharing makes the occurrence budget cluster-wide.
        """
        if spec is None:
            return None
        kind = spec.kind
        self.report.faults_injected[kind.value] = (
            self.report.faults_injected.get(kind.value, 0) + 1
        )
        names.CHAOS_FAULTS.labelled(kind.value).add()
        if kind in (FaultKind.DISCONNECT, FaultKind.RESTART):
            injector = FaultInjector(after_messages=spec.param, times=1)
        elif kind is FaultKind.MID_RESULT:
            injector = FaultInjector(mid_result=True, times=1)
        elif kind is FaultKind.STALL_OVER:
            injector = FaultInjector(stall_ready_s=STALL_OVER_S, stall_times=1)
        elif kind is FaultKind.STALL_UNDER:
            injector = FaultInjector(stall_ready_s=STALL_UNDER_S, stall_times=1)
        elif kind is FaultKind.TRUNCATE_READY:
            injector = FaultInjector(
                truncate_ready_bytes=spec.param, truncate_times=1
            )
        elif kind is FaultKind.TELEMETRY_LOSS:
            # Installed on one host only: its next TELEMETRY probe is
            # aborted on the wire, end to end through the aggregator.
            injector = FaultInjector(drop_telemetry_times=1)
            self.cluster.daemons[self._target_host(spec)].faults = injector
            return injector
        elif kind is FaultKind.HEARTBEAT_LOSS:
            target = self._target_host(spec)
            budget = {"left": 1}

            def drop(name: str) -> bool:
                if name == target and budget["left"] > 0:
                    budget["left"] -= 1
                    return True
                return False

            self.cluster.registry.probe_fault = drop
            return None
        elif kind is FaultKind.SLOW_LINK:

            def shape(stream) -> None:
                stream.link = WAN_CLOUDNET

            self.cluster.orchestrator.config = replace(
                self.base_config, on_stream=shape
            )
            return None
        elif kind is FaultKind.CORRUPT_SEGMENT:
            self._corrupt_segment(spec)
            return None
        else:
            raise NotImplementedError(f"no arm for fault kind {kind!r}")
        for daemon in self.cluster.daemons.values():
            daemon.faults = injector
        return injector

    def _disarm(self, injector: Optional[FaultInjector]) -> None:
        for daemon in self.cluster.daemons.values():
            daemon.faults = FaultInjector()
        self.cluster.registry.probe_fault = None
        self.cluster.orchestrator.config = self.base_config
        if injector is not None and injector.armed:
            # The migration finished without reaching the fault point
            # (e.g. a deferred placement): no occurrence to account.
            self._skip()

    def _skip(self) -> None:
        self.report.faults_skipped += 1
        names.CHAOS_FAULTS_SKIPPED.add()

    def _corrupt_segment(self, spec: FaultSpec) -> None:
        """Flip one durable segment; the scrub must catch exactly it."""
        candidates = [
            name
            for name in self.cluster.names
            if self.cluster.daemons[name].repository is not None
            and self.cluster.daemons[name].repository.list_checkpoints()
        ]
        if not candidates:
            self._skip()
            return
        target = candidates[spec.host_index % len(candidates)]
        repository = self.cluster.daemons[target].repository
        digests = sorted(
            {
                digest
                for manifest in repository.list_checkpoints()
                for digest in manifest.slot_digests
            }
        )
        digest = digests[spec.param % len(digests)]
        if not repository.corrupt_segment(digest):
            self._skip()
            return
        self.checker.record_corruption(target, digest.hex())
        # The scrub must quarantine the injected segment — and nothing
        # else; a second scrub right after must come back clean.
        self.checker.check_repositories(
            {target: self.cluster.daemons[target]}, round_no=spec.round_no
        )
        clean = repository.verify()
        if not clean.ok:
            self.checker.fail(
                "repository_integrity",
                f"round {spec.round_no}: {target}: re-scrub after "
                f"quarantine still dirty: {clean.corrupt_segments}",
            )

    async def _restart_aborted_daemon(
        self, task: asyncio.Task, aborted: asyncio.Future
    ) -> None:
        """Restart the daemon that takes the injected abort in place.

        The abort reports the daemon that took it through ``aborted``;
        a migration that ends first took none.  The restarted daemon
        recovers from its state directory on the same port, so the
        retrying source reconnects to the recovered host.
        """
        await asyncio.wait({task, aborted}, return_when=asyncio.FIRST_COMPLETED)
        if not aborted.done():
            aborted.cancel()
            return
        target = aborted.result()
        recovered_counter = names.REPO_RECOVERED_CHECKPOINTS.on()
        counted_before = recovered_counter.value
        fresh = await self.cluster.restart(target)
        # Invariant 4: recovery counted each recovered checkpoint once.
        self.checker.record_recovery(
            target,
            recovered_counter.value - counted_before,
            len(fresh.checkpoints),
        )
        self.report.restarts += 1
        names.CHAOS_RESTARTS.add()
        log.info("chaos restarted daemon", host=target)

    async def _migrate(self):
        """One orchestrated migration; placement starvation defers.

        An injected heartbeat loss can leave a small cluster with no
        eligible destination for a round — an expected consequence of
        the fault, not a soak crash.  The VM simply stays put until the
        next poll revives the host.
        """
        try:
            return await self.cluster.orchestrator.migrate_vm(self.vm_id, self.hashes)
        except PlacementError as exc:
            log.info("chaos round deferred by placement", cause=str(exc))
            return None, None

    async def _round(self, round_no: int, gap_hours: float) -> None:
        names.CHAOS_ROUNDS.add()
        self._mutate_hashes(gap_hours)
        specs = self.schedule.for_round(round_no)
        spec = specs[0] if specs else None
        injector = self._arm(spec)
        try:
            if spec is not None and spec.kind == FaultKind.RESTART:
                aborted = asyncio.get_running_loop().create_future()
                injector.on_abort = aborted.set_result
                task = asyncio.create_task(self._migrate())
                await self._restart_aborted_daemon(task, aborted)
                decision, outcome = await task
            else:
                decision, outcome = await self._migrate()
        finally:
            # A telemetry-drop injector stays armed through the end-of-round
            # poll below; everything else is cleared first.
            if spec is None or spec.kind != FaultKind.TELEMETRY_LOSS:
                self._disarm(injector)
        self.report.records.append(
            RoundRecord(
                round_no=round_no,
                vm_id=self.vm_id,
                fault=spec.kind.value if spec is not None else None,
                destination=None if outcome is None else outcome.destination,
                ok=bool(outcome is not None and outcome.ok),
                deferred=bool(outcome is None),
                attempts=0 if outcome is None else outcome.attempts,
                error_code=None if outcome is None else outcome.error_code,
                generation=(
                    None if outcome is None else outcome.checkpoint_generation
                ),
            )
        )
        self.checker.observe_outcome(
            round_no,
            outcome.destination if outcome is not None else "",
            outcome,
            self.cluster.pagestore.page_size,
        )
        await self.cluster.aggregator.poll_all()
        if spec is not None and spec.kind == FaultKind.TELEMETRY_LOSS:
            self._disarm(injector)
        self.checker.check_store_accounting(self.cluster.daemons, round_no)
        self.checker.check_rollups(self.cluster.aggregator, round_no)

    async def run(self) -> None:
        previous_hours = 0.0
        for round_no, event in enumerate(self.events):
            gap = max(1.0, event.time_hours - previous_hours)
            previous_hours = event.time_hours
            await self._round(round_no, gap)
        # Final reconciliation over a clean poll: the rollups must now
        # match the per-migration metrics exactly, and every repository
        # must scrub clean (all injected corruption was quarantined when
        # it was injected).
        await self.cluster.aggregator.poll_all()
        self.checker.check_rollups(
            self.cluster.aggregator, self.report.rounds, final=True
        )
        self.checker.check_repositories(self.cluster.daemons)
        self.report.violations = self.checker.summary()


async def run_soak_async(
    seed: int = 0,
    migrations: int = 8,
    hosts: int = 3,
    num_pages: int = 128,
    vdi: bool = False,
    days: int = 3,
    intensity: float = 0.8,
    policy: str = "best-checkpoint",
    state_root: Optional[Path] = None,
    schedule: Optional[FaultSchedule] = None,
) -> SoakReport:
    """Run one seeded chaos soak; returns the deterministic report.

    Args:
        seed: Drives the fault schedule and the VM's dirty-page churn.
        migrations: Ping-pong rounds (ignored with ``vdi=True``).
        hosts: Daemons to boot (two named hosts plus standbys).
        num_pages: VM image size in pages (small = fast).
        vdi: Replay the §4.6 weekday schedule instead of ping-pong.
        days: Trace days for the VDI schedule.
        intensity: Fraction of rounds that get a fault.
        policy: Placement policy name (``get_policy``).
        state_root: Durable state directory; a temp dir (cleaned up
            afterwards) when None.
        schedule: Pre-built schedule; overrides ``seed``-generation
            (the seed still drives the dirty-page churn).
    """
    if hosts < 2:
        raise ValueError(f"need at least 2 hosts, got {hosts}")
    if vdi:
        events = vdi_schedule(days, workstation="host-a", server="host-b")
    else:
        events = ping_pong_schedule(4.0, migrations)
    if schedule is None:
        schedule = FaultSchedule.generate(
            seed, rounds=len(events), intensity=intensity
        )
    temp_root: Optional[str] = None
    if state_root is None:
        temp_root = tempfile.mkdtemp(prefix="vecycle-chaos-")
        state_root = Path(temp_root)
    cluster = LiveCluster(
        ["host-a", "host-b"] + [f"standby-{i}" for i in range(1, hosts - 1)],
        policy=get_policy(policy),
        config=SOAK_CONFIG,
        state_root=Path(state_root),
        io_timeout_s=2.0,
        heartbeat_timeout_s=2.0,
    )
    soak = _Soak(cluster, seed, events, schedule, num_pages)
    try:
        async with cluster:
            await soak.run()
    finally:
        if temp_root is not None:
            shutil.rmtree(temp_root, ignore_errors=True)
    soak.report.daemon_instruments = cluster.instruments
    return soak.report


def run_soak(**kwargs) -> SoakReport:
    """Synchronous wrapper around :func:`run_soak_async`."""
    return asyncio.run(run_soak_async(**kwargs))
