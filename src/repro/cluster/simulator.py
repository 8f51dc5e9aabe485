"""Datacenter consolidation simulator.

Drives a fleet of bursty VMs through a consolidation policy for days of
simulated time, executing every ordered migration through the model's
hosts (:class:`~repro.migration.engine.Hosts`: departure checkpoints,
§3.2's announce rule, pre-copy rounds) — the system-level experiment
behind §2.2's claim that consolidation workloads are where checkpoint
recycling shines.

Each VM alternates between an *active* and an *idle* phase via a
two-state Markov chain evaluated once per epoch; active VMs dirty
memory fast, idle ones barely at all.  The policy (e.g.
:class:`~repro.cluster.policies.ThresholdConsolidation`) reacts to the
activity, producing the ping-pong migration pattern whose traffic the
report aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.cluster.policies import ConsolidationPolicy, VmStatus
from repro.core.strategies import MigrationStrategy
from repro.mem.mutation import boot_populate
from repro.migration.engine import Hosts
from repro.migration.report import MigrationReport
from repro.migration.vm import SimVM
from repro.net.link import Link
from repro.obs import names
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.storage.disk import Disk, HDD_HD204UI

log = get_logger(__name__)

EPOCH_SECONDS = 1800.0


@dataclass
class FleetVm:
    """One simulated guest plus its burstiness model.

    Attributes:
        vm: The underlying memory/dirty-tracking model.
        home_host: Where the VM runs when active.
        activation_probability: Chance an idle VM turns active at an
            epoch boundary.
        deactivation_probability: Chance an active VM turns idle.
        active_dirty_rate / idle_dirty_rate: Pages/second written in
            each phase.
    """

    vm: SimVM
    home_host: str
    activation_probability: float = 0.1
    deactivation_probability: float = 0.3
    active_dirty_rate: float = 400.0
    idle_dirty_rate: float = 2.0
    active: bool = False
    host: str = ""

    def __post_init__(self) -> None:
        for name in ("activation_probability", "deactivation_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not self.host:
            self.host = self.home_host

    def step_activity(self, rng: np.random.Generator) -> None:
        """Advance the two-state activity Markov chain by one epoch."""
        if self.active:
            self.active = rng.random() >= self.deactivation_probability
        else:
            self.active = rng.random() < self.activation_probability
        self.vm.dirty_rate_pages_per_s = (
            self.active_dirty_rate if self.active else self.idle_dirty_rate
        )

    def status(self) -> VmStatus:
        """The policy-facing snapshot of this VM's placement/activity."""
        return VmStatus(
            vm_id=self.vm.vm_id,
            host=self.host,
            home_host=self.home_host,
            active=self.active,
        )


@dataclass
class ClusterReport:
    """Aggregate outcome of a consolidation run."""

    strategy: str
    epochs: int
    migrations: List[MigrationReport] = field(default_factory=list)

    @property
    def num_migrations(self) -> int:
        return len(self.migrations)

    @property
    def total_tx_bytes(self) -> int:
        return sum(report.tx_bytes for report in self.migrations)

    @property
    def total_migration_seconds(self) -> float:
        return sum(report.total_time_s for report in self.migrations)

    @property
    def full_copy_equivalent_bytes(self) -> int:
        """What the same migrations would move as plain full copies."""
        return sum(report.memory_bytes for report in self.migrations)

    @property
    def traffic_fraction_of_full(self) -> float:
        baseline = self.full_copy_equivalent_bytes
        return self.total_tx_bytes / baseline if baseline else 0.0

    def summary(self) -> str:
        """One-line human-readable aggregate for CLI output."""
        return (
            f"{self.strategy:>16s}: {self.num_migrations:4d} migrations, "
            f"{self.total_tx_bytes / 2**30:7.2f} GiB moved "
            f"({self.traffic_fraction_of_full * 100:5.1f}% of full copies), "
            f"{self.total_migration_seconds:8.1f}s spent migrating"
        )


class DatacenterSimulator:
    """Epoch-driven fleet simulation under a consolidation policy.

    Args:
        fleet: The guests and their burstiness models.
        hosts: All host names, including the policy's consolidation
            target.
        policy: Decides migrations each epoch.
        strategy: Migration strategy used for every move.
        link: Network between any pair of hosts (a flat topology — the
            testbed's single switch).
        seed: RNG seed for the activity chains.
        disk: Where every host keeps its checkpoints.
    """

    def __init__(
        self,
        fleet: List[FleetVm],
        hosts: List[str],
        policy: ConsolidationPolicy,
        strategy: MigrationStrategy,
        link: Link,
        seed: int = 0,
        disk: Disk = HDD_HD204UI,
    ) -> None:
        if not fleet:
            raise ValueError("fleet must not be empty")
        self.fleet = fleet
        self.host_names = set(hosts)
        for member in fleet:
            if member.home_host not in self.host_names:
                raise ValueError(f"unknown home host {member.home_host!r}")
        self.hosts = Hosts(disk)
        self.policy = policy
        self.strategy = strategy
        self.link = link
        self.rng = np.random.default_rng(seed)

    def run(self, epochs: int) -> ClusterReport:
        """Simulate ``epochs`` half-hour epochs; return the aggregate."""
        if epochs <= 0:
            raise ValueError(f"epochs must be > 0, got {epochs}")
        report = ClusterReport(strategy=self.strategy.name, epochs=epochs)
        log.info(
            "starting consolidation run",
            strategy=self.strategy.name,
            vms=len(self.fleet),
            hosts=len(self.host_names),
            epochs=epochs,
        )
        with _span(
            "cluster.run",
            strategy=self.strategy.name,
            vms=len(self.fleet),
            epochs=epochs,
        ) as run_span:
            for epoch in range(epochs):
                for member in self.fleet:
                    member.step_activity(self.rng)
                    member.vm.run_for(EPOCH_SECONDS)
                moves = self.policy.decide(
                    [member.status() for member in self.fleet], epoch
                )
                for move in moves:
                    member = self._member(move.vm_id)
                    if move.destination == member.host:
                        continue
                    if move.destination not in self.host_names:
                        raise ValueError(
                            f"policy moved to unknown host {move.destination!r}"
                        )
                    with _span(
                        "cluster.migration",
                        epoch=epoch,
                        vm=move.vm_id,
                        source=member.host,
                        destination=move.destination,
                    ) as move_span:
                        migration = self.hosts.migrate(
                            member.vm,
                            member.host,
                            move.destination,
                            self.strategy,
                            self.link,
                        )
                        move_span.set(
                            tx_bytes=migration.tx_bytes
                        ).add_modelled(migration.total_time_s)
                    names.CLUSTER_MIGRATIONS.add(1)
                    names.CLUSTER_TX_BYTES.add(migration.tx_bytes)
                    member.host = move.destination
                    report.migrations.append(migration)
            run_span.set(migrations=report.num_migrations)
        log.info(
            "consolidation run finished",
            strategy=self.strategy.name,
            migrations=report.num_migrations,
            gib_moved=round(report.total_tx_bytes / 2**30, 3),
        )
        return report

    def _member(self, vm_id: str) -> FleetVm:
        for member in self.fleet:
            if member.vm.vm_id == vm_id:
                return member
        raise KeyError(f"unknown VM {vm_id!r}")


def build_fleet(
    num_vms: int,
    memory_bytes: int,
    num_home_hosts: int = 2,
    seed: int = 0,
    recall_fraction: float = 0.3,
    duplicate_fraction: float = 0.08,
    **vm_overrides,
) -> tuple[List[FleetVm], List[str]]:
    """Convenience factory: a fleet of populated VMs plus their host names.

    VM ``i`` homes on ``host-{i % num_home_hosts}``; a consolidation
    server is appended to the host list.  VMs boot with a realistic
    memory composition (duplicate pages, a few zero pages) and their
    guests recall previously seen content at ``recall_fraction`` — both
    required for the dedup/dirty/hashes distinctions of §4.2/§4.3 to be
    visible at fleet scale.
    """
    if num_vms <= 0:
        raise ValueError(f"num_vms must be > 0, got {num_vms}")
    if num_home_hosts <= 0:
        raise ValueError(f"num_home_hosts must be > 0, got {num_home_hosts}")
    rng = np.random.default_rng(seed)
    fleet: List[FleetVm] = []
    for index in range(num_vms):
        vm = SimVM(
            f"vm-{index:02d}",
            memory_bytes,
            working_set_fraction=0.1,
            recall_fraction=recall_fraction,
            seed=int(rng.integers(0, 2**31)),
        )
        boot_populate(
            vm.image,
            rng,
            used_fraction=0.95,
            duplicate_fraction=duplicate_fraction,
            zero_fraction=0.03,
        )
        fleet.append(
            FleetVm(vm=vm, home_host=f"host-{index % num_home_hosts}", **vm_overrides)
        )
    return fleet, [f"host-{i}" for i in range(num_home_hosts)] + ["consolidation-server"]
