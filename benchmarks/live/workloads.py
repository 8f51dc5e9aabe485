"""The four workloads, end to end.

Set-up rules, the same for every workload (README.md gives the why):

* closed loop, one migration in flight; source and daemons share one
  asyncio loop and talk over the host's loopback interface;
* ``RuntimeConfig(time_scale=0.0)``, every other field default, no
  ``Link``;
* the fixture stays outside the clock: every ``PageStore`` is built
  large enough never to evict and is pre-filled through ``page_bytes``
  during set-up.  Source and destination get separate stores and the
  source store is fresh per sample, so page bytes are warm while every
  source digest is computed inside the timed region;
* ``gc.collect()`` before each sample; sample *i* runs seed ``S + i``.

This module imports only the package exports of ``repro.runtime``,
``repro.orchestrator``, ``repro.mem.pagestore`` and ``repro.core``.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import (
    PAGE_SIZE,
    VECYCLE,
    VECYCLE_DEDUP,
    Fingerprint,
    compute_transfer_set,
    first_round_traffic,
)
from repro.mem.pagestore import PageStore
from repro.orchestrator import (
    BestCheckpoint,
    ClusterRegistry,
    MigrationExecutor,
    Orchestrator,
    PlacementDecision,
    PlacementPolicy,
    TelemetryAggregator,
)
from repro.runtime import (
    CheckpointDaemon,
    MigrationError,
    MigrationSource,
    RuntimeConfig,
    Scenario,
    SourceState,
    idle_vm_scenario,
)

from benchmarks.live import obsaccess
from benchmarks.live.spans import SpanRecorder

MIB = 2**20
GIB = 2**30


# --- what a run is made of ------------------------------------------------


@dataclass(frozen=True)
class SingleVm:
    """One VM returning to a host that kept its checkpoint (Figures 6/7)."""

    name: str
    size_mib: int
    updates_percent: float
    samples: int
    """Timed samples at the reference run length."""
    durable: bool = False
    warmup: int = 2
    min_samples: int = 12


@dataclass(frozen=True)
class Fleet:
    """VMs swapping among a small host set under the orchestrator."""

    name: str
    hosts: int = 3
    vms: int = 6
    vm_mib: int = 8
    churn_fraction: float = 0.03
    samples: int = 300
    warmup: int = 18
    """Ring hops before the clock starts: every VM visits every host."""
    min_samples: int = 300


Workload = Union[SingleVm, Fleet]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        SingleVm("idle_return", size_mib=64, updates_percent=0, samples=16),
        SingleVm("full_churn", size_mib=64, updates_percent=100, samples=12),
        SingleVm(
            "durable_half", size_mib=32, updates_percent=50, samples=12,
            durable=True,
        ),
        Fleet("fleet_pingpong"),
    )
}

QUICK_SIZE_MIB = 8
QUICK_SAMPLES = 3
QUICK_HOPS = 30


def sized(workload: Workload, scale: float, quick: bool) -> Workload:
    """``workload`` with its sample count fixed for this run.

    The count is a function of the requested run length only — never of
    how fast this commit happens to be — so two commits measured with
    the same arguments do the same work.  VM sizes are never scaled
    (``--quick`` is a smoke test, not a measurement).
    """
    if quick:
        if isinstance(workload, Fleet):
            return replace(workload, samples=QUICK_HOPS)
        return replace(
            workload, size_mib=QUICK_SIZE_MIB, samples=QUICK_SAMPLES, warmup=1
        )
    samples = max(workload.min_samples, round(workload.samples * scale))
    return replace(workload, samples=samples)


@dataclass
class Sample:
    """One timed migration (or fleet hop) and what the checks said."""

    wall_s: float
    cpu_s: float
    guest_bytes: int
    wire_bytes: int
    problems: List[str] = field(default_factory=list)
    restart_s: Optional[float] = None


class Stopwatch:
    """Accumulates the wall time of the ``with`` bodies it guards."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.seconds += time.perf_counter() - self._started


def warm_store(content_ids: np.ndarray, headroom_pages: int = 0) -> PageStore:
    """A ``PageStore`` that already holds the bytes of every given id.

    The page cache is twice the working set (plus ``headroom_pages`` for
    ids added later), so nothing synthesized here is ever evicted and a
    timed region never pays for ``PageStore._generate``.
    """
    distinct = np.unique(np.asarray(content_ids, dtype=np.uint64))
    store = PageStore(cache_limit=2 * (int(distinct.size) + headroom_pages) + 16)
    fill(store, distinct)
    return store


def fill(store: PageStore, content_ids: np.ndarray) -> None:
    page_bytes = store.page_bytes
    for content_id in np.asarray(content_ids).tolist():
        page_bytes(content_id)


EVICTED = "pagestore.page_evictions moved inside the timed region"


def _span(spans: Optional[SpanRecorder], name: str, **attrs: Any):
    """A harness span in the traced run, nothing in the untraced one."""
    return spans.span(name, **attrs) if spans else nullcontext()


def _run_timed(loop, timed, program_spans: Optional[List[Any]]):
    """Run the ``timed`` coroutine; also say whether a page was evicted.

    A moving ``pagestore.page_evictions`` means the timed region paid
    for page synthesis — the fixture leaked into the clock.  With
    ``program_spans`` the program's own tracer is on meanwhile and its
    finished records are appended to the list.
    """
    before = obsaccess.counter("pagestore.page_evictions")
    tracing = (
        obsaccess.program_tracing(program_spans)
        if program_spans is not None
        else nullcontext()
    )
    with tracing:
        result = loop.run_until_complete(timed)
    return result, obsaccess.counter("pagestore.page_evictions") != before


def state_base() -> Tuple[Path, str]:
    """Where durable state directories go, and that filesystem's type.

    tmpfs when the host has one: the workload measures the program's
    per-page persist cost and counts its barriers; a shared virtual
    disk's fsync latency (probe: 5x slower, ±12%, stalls of minutes) is
    not the program's.  Without ``/dev/shm`` the directory sits in the
    working directory.
    """
    shm = Path("/dev/shm")
    base = shm if shm.is_dir() and os.access(shm, os.W_OK) else Path.cwd()
    return base, _fs_type(base)


def _fs_type(path: Path) -> str:
    best, fs_type = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fs_type
    resolved = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if resolved == mount or resolved.startswith(mount.rstrip("/") + "/"):
            if len(mount) > len(best):
                best, fs_type = mount, parts[2]
    return fs_type


# --- single-VM workloads --------------------------------------------------


class SingleVmRig:
    """Runs samples of one single-VM workload on one asyncio loop."""

    def __init__(
        self,
        workload: SingleVm,
        seed: int,
        corrupt_expectation: bool = False,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.corrupt_expectation = corrupt_expectation
        self.spans = spans
        self.setup = Stopwatch()
        self.loop = asyncio.new_event_loop()
        self.state_fs = "memory"
        self._state_root: Optional[Path] = None
        if workload.durable:
            base, self.state_fs = state_base()
            self._state_root = Path(
                tempfile.mkdtemp(prefix="vecycle-bench-", dir=base)
            )

    def close(self) -> None:
        self.loop.close()
        if self._state_root is not None:
            shutil.rmtree(self._state_root, ignore_errors=True)

    def scenario(self, index: int) -> Scenario:
        return idle_vm_scenario(
            size_mib=self.workload.size_mib,
            updates_percent=self.workload.updates_percent,
            strategy=VECYCLE,
            seed=self.seed + index,
        )

    def sample(
        self, index: int, program_spans: Optional[List[Any]] = None
    ) -> Sample:
        """Set up, time and check the migration of sample ``index``.

        With ``program_spans`` the program's own tracer is on for the
        timed region and its finished records are appended to the list.
        """
        loop = self.loop
        with self.setup, _span(self.spans, "e2e.setup"):
            scenario = self.scenario(index)
            strategy = scenario.strategy
            source_store = warm_store(scenario.current.hashes)
            dest_store = warm_store(scenario.checkpoint.hashes)
            state_dir = None
            if self._state_root is not None:
                state_dir = self._state_root / f"sample-{index}"
            daemon = CheckpointDaemon(
                name="dest", time_scale=0.0, pagestore=dest_store,
                state_dir=state_dir,
            )
            loop.run_until_complete(daemon.start())
            daemon.install_checkpoint(
                scenario.vm_id, scenario.checkpoint, strategy.checksum
            )
            source = MigrationSource(
                SourceState(
                    vm_id=scenario.vm_id,
                    hashes=scenario.current.hashes,
                    pagestore=source_store,
                    dirty_slots=scenario.dirty_slots,
                ),
                strategy,
                config=RuntimeConfig(time_scale=0.0),
            )
            gc.collect()

        with _span(self.spans, "e2e.migrate", traced=program_spans is not None):
            (wall_s, cpu_s, metrics, error), evicted = _run_timed(
                loop,
                _timed_migrate(source, daemon.host, daemon.port),
                program_spans,
            )

        with _span(self.spans, "e2e.verify"):
            problems = _check_migration(
                scenario, source, daemon, metrics, error,
                expected_payload_bytes(scenario) + self.corrupt_expectation,
            )
            if evicted:
                problems.append(EVICTED)
            loop.run_until_complete(daemon.stop())
            restart_s = None
            if state_dir is not None:
                restart_s = _check_restart(
                    scenario, source, dest_store, state_dir, problems
                )
                shutil.rmtree(state_dir, ignore_errors=True)
        return Sample(
            wall_s=wall_s,
            cpu_s=cpu_s,
            guest_bytes=scenario.num_pages * PAGE_SIZE,
            wire_bytes=metrics.total_bytes if metrics is not None else 0,
            problems=problems,
            restart_s=restart_s,
        )


async def _timed_migrate(source: MigrationSource, host: str, port: int):
    """The timed region: exactly ``MigrationSource.migrate``."""
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        metrics, error = await source.migrate(host, port), None
    except MigrationError as exc:
        metrics, error = exc.metrics, str(exc)
    return time.perf_counter() - wall, time.process_time() - cpu, metrics, error


def expected_payload_bytes(scenario: Scenario) -> int:
    """What the analytic model says the data frames must add up to."""
    strategy = scenario.strategy
    transfer_set = compute_transfer_set(
        strategy.method,
        scenario.current,
        checkpoint=scenario.checkpoint,
        dirty_slots=scenario.dirty_slots,
    )
    traffic = first_round_traffic(
        transfer_set,
        strategy.wire,
        announce_unique_pages=scenario.checkpoint.num_unique,
    )
    return traffic.payload_bytes


def _check_migration(
    scenario, source, daemon, metrics, error, expected: int
) -> List[str]:
    """Every way this migration's output can be wrong (empty when right).

    ``expected`` is the analytic payload size the data frames must hit
    exactly (the cross-validation oracle, delta 0).
    """
    if error is not None or metrics is None:
        return [f"migration failed: {error}"]
    problems = []
    if metrics.outcome != "completed":
        problems.append(f"outcome {metrics.outcome!r}")
    try:
        metrics.validate()
    except ValueError as exc:
        problems.append(f"metrics invalid: {exc}")
    if metrics.payload_bytes != expected:
        problems.append(
            f"payload {metrics.payload_bytes} B != analytic {expected} B"
        )
    if daemon.checkpoint_digests(scenario.vm_id) != source.final_digests():
        problems.append("destination checkpoint digests differ from the source's")
    return problems


def _check_restart(scenario, source, store, state_dir, problems) -> float:
    """Restart a daemon over ``state_dir``; returns the seconds it took."""
    started = time.perf_counter()
    reborn = CheckpointDaemon(
        name="dest", time_scale=0.0, pagestore=store, state_dir=state_dir
    )
    restart_s = time.perf_counter() - started
    hosted = reborn.checkpoints.get(scenario.vm_id)
    if hosted is None:
        problems.append("restarted daemon does not host the VM")
    elif hosted.generation != source.result_generation:
        problems.append(
            f"restarted daemon hosts generation {hosted.generation}, "
            f"RESULT said {source.result_generation}"
        )
    if not reborn.repository.verify().ok:
        problems.append("repository.verify() found damage after restart")
    return restart_s


# --- the fleet workload ---------------------------------------------------


class _RingWarmup(PlacementPolicy):
    """Warm-up placement: send each VM to the next host of the ring.

    ``best-checkpoint`` alone settles into pairwise swaps and would
    leave the third host without a checkpoint; three ring hops per VM
    put one on every host before the clock starts.
    """

    name = "ring-warmup"

    def decide(self, request, view) -> PlacementDecision:
        hosts = sorted(view.hosts())
        nxt = hosts[(hosts.index(request.source_host) + 1) % len(hosts)]
        return PlacementDecision(
            vm_id=request.vm_id, destination=nxt, policy=self.name,
            score=0.0, reason="warm-up ring",
        )


class FleetRig:
    """Three in-memory daemons, six VMs, one orchestrator, one loop.

    All parties share one ``PageStore``, as ``replay_vdi_live`` wires
    it; pages rewritten before a hop are pre-filled there, untimed.
    """

    def __init__(
        self,
        workload: Fleet,
        seed: int,
        corrupt_expectation: bool = False,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.workload = workload
        self.corrupt_expectation = corrupt_expectation
        self.spans = spans
        self.setup = Stopwatch()
        self.state_fs = "memory"
        self.loop = asyncio.new_event_loop()
        self.hops_done = 0
        with self.setup, _span(self.spans, "e2e.setup"):
            self._build(seed)

    def _build(self, seed: int) -> None:
        w = self.workload
        self.rng = np.random.default_rng(seed)
        self.pages = w.vm_mib * MIB // PAGE_SIZE
        self.churn_pages = max(1, round(self.pages * w.churn_fraction))
        self.images = [
            self.rng.integers(1, 2**63, size=self.pages, dtype=np.uint64)
            for _ in range(w.vms)
        ]
        planned_hops = w.warmup + w.samples
        self.store = warm_store(
            np.concatenate(self.images),
            headroom_pages=planned_hops * self.churn_pages,
        )
        self.registry = ClusterRegistry()
        self.daemons: Dict[str, CheckpointDaemon] = {}
        for index in range(w.hosts):
            daemon = CheckpointDaemon(
                name=f"h{index}", time_scale=0.0, pagestore=self.store
            )
            self.loop.run_until_complete(daemon.start())
            self.daemons[daemon.name] = daemon
            self.registry.register(daemon.name, daemon.host, daemon.port)
        self.orchestrator = Orchestrator(
            self.registry,
            BestCheckpoint(),
            executor=MigrationExecutor(),
            strategy=VECYCLE_DEDUP,
            config=RuntimeConfig(time_scale=0.0),
            pagestore=self.store,
        )
        self.aggregator = TelemetryAggregator(self.registry)
        hosts = sorted(self.daemons)
        self.vm_ids = [f"vm-{i}" for i in range(w.vms)]
        self.locations = {
            vm: hosts[i % len(hosts)] for i, vm in enumerate(self.vm_ids)
        }

    def close(self) -> None:
        for daemon in self.daemons.values():
            self.loop.run_until_complete(daemon.stop())
        self.loop.close()

    def warm_up(self) -> List[Sample]:
        """The ring hops before the clock starts."""
        best = self.orchestrator.policy
        self.orchestrator.policy = _RingWarmup()
        try:
            return [self.hop() for _ in range(self.workload.warmup)]
        finally:
            self.orchestrator.policy = best

    def next_vm(self) -> Tuple[str, np.ndarray]:
        """The VM the next hop moves, and its image before the rewrite."""
        index = self.hops_done % len(self.vm_ids)
        return self.vm_ids[index], self.images[index]

    def hop(self, program_spans: Optional[List[Any]] = None) -> Sample:
        """Rewrite a few pages of the next VM, then move it (timed)."""
        vm_id, image = self.next_vm()
        with self.setup, _span(self.spans, "e2e.setup"):
            slots = self.rng.choice(self.pages, size=self.churn_pages, replace=False)
            fresh = self.rng.integers(
                2**63, 2**64 - 1, size=self.churn_pages, dtype=np.uint64
            )
            image[slots] = fresh
            fill(self.store, fresh)
            hashes = image.copy()
            gc.collect()

        with _span(self.spans, "e2e.hop", traced=program_spans is not None):
            (wall_s, cpu_s, outcome), evicted = _run_timed(
                self.loop, self._timed_hop(vm_id, hashes), program_spans
            )
        self.hops_done += 1

        problems = []
        metrics = outcome.metrics if outcome is not None else None
        if outcome is None or not outcome.ok or metrics is None:
            detail = outcome.error if outcome is not None else "deferred"
            problems.append(f"hop failed: {detail}")
        else:
            self.locations[vm_id] = outcome.destination
            hosted = self.daemons[outcome.destination].checkpoint_digests(vm_id)
            expected = set(self.store.digests_for(hashes))
            if self.corrupt_expectation:
                expected.add(b"not a digest")
            if hosted != expected:
                problems.append("destination checkpoint digests differ")
        if evicted:
            problems.append(EVICTED)
        return Sample(
            wall_s=wall_s,
            cpu_s=cpu_s,
            guest_bytes=self.pages * PAGE_SIZE,
            wire_bytes=metrics.total_bytes if metrics is not None else 0,
            problems=problems,
        )

    async def _timed_hop(self, vm_id: str, hashes: np.ndarray):
        """The timed region: place, migrate, then poll telemetry."""
        wall = time.perf_counter()
        cpu = time.process_time()
        _decision, outcome = await self.orchestrator.migrate_vm(
            vm_id, hashes, source_host=self.locations[vm_id]
        )
        await self.aggregator.poll_all()
        return time.perf_counter() - wall, time.process_time() - cpu, outcome

    def audit(self) -> List[str]:
        """Refcount violations across the fleet (empty when clean)."""
        return [v for d in self.daemons.values() for v in d.audit_store()]

    def probe_scenario(self) -> Scenario:
        """The next hop's VM as a single-VM scenario, for the layer probes."""
        vm_id, image = self.next_vm()
        current = image.copy()
        slots = np.sort(
            self.rng.choice(self.pages, size=self.churn_pages, replace=False)
        )
        current[slots] = self.rng.integers(
            2**63, 2**64 - 1, size=self.churn_pages, dtype=np.uint64
        )
        return Scenario(
            vm_id=vm_id,
            current=Fingerprint(hashes=current),
            checkpoint=Fingerprint(hashes=image.copy()),
            dirty_slots=slots,
            strategy=VECYCLE_DEDUP,
        )


def make_rig(workload: Workload, seed: int, **kwargs: Any):
    rig_type = FleetRig if isinstance(workload, Fleet) else SingleVmRig
    return rig_type(workload, seed, **kwargs)
