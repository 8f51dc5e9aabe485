"""The model's hosts: departure checkpoints and §3.2's announce rule.

Hosts are names, the vocabulary schedules, policies and the
orchestrator already use.  :class:`Hosts` keeps what the analytic model
needs to know about them: the checkpoint each host wrote when a VM last
left it, and the host each VM last departed.  :meth:`Hosts.migrate`
runs one pre-copy simulation with both and records the departure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.core.checkpoint import Checkpoint
from repro.core.strategies import MigrationStrategy
from repro.migration.precopy import PrecopyConfig, simulate_migration
from repro.migration.report import MigrationReport
from repro.migration.vm import SimVM
from repro.net.link import Link
from repro.obs import names
from repro.obs.trace import span as _span
from repro.storage.disk import Disk, HDD_HD204UI


@dataclass
class Hosts:
    """Every model host's departure checkpoints, keyed by host name.

    Attributes:
        disk: Where every host keeps its checkpoints (HDD by default;
            the paper found HDD vs SSD made no difference, §4.4).
        checkpoints: ``(vm_id, host)`` → the checkpoint ``host`` wrote
            when the VM last left it, with its generation vector.
        last_departed: ``vm_id`` → the host the VM last left.
    """

    disk: Disk = HDD_HD204UI
    checkpoints: Dict[Tuple[str, str], Checkpoint] = field(default_factory=dict)
    last_departed: Dict[str, str] = field(default_factory=dict)

    def migrate(
        self,
        vm: SimVM,
        source: str,
        destination: str,
        strategy: MigrationStrategy,
        link: Link,
        config: PrecopyConfig = PrecopyConfig(),
    ) -> MigrationReport:
        """Migrate ``vm`` from ``source`` to ``destination``.

        The destination contributes the checkpoint it wrote when the VM
        last left it, if the strategy reuses one.  The bulk announce is
        skipped only when the source received the VM from
        ``destination`` (§3.2): then it learned the destination's
        checksums while receiving that migration.  Afterwards
        ``source`` holds a checkpoint of the VM taken at the end of the
        migration, whatever the strategy, so a later recycling
        migration can use it.
        """
        if source == destination:
            raise ValueError("source and destination must differ")
        with _span(
            "engine.migrate",
            vm=vm.vm_id,
            source=source,
            destination=destination,
            strategy=strategy.name,
        ) as sp:
            known = (
                config.announce_known
                or self.last_departed.get(vm.vm_id) == destination
            )
            report = simulate_migration(
                vm,
                strategy,
                link,
                checkpoint=(
                    self.checkpoints.get((vm.vm_id, destination))
                    if strategy.reuses_checkpoint
                    else None
                ),
                dest_disk=self.disk,
                source_disk=self.disk,
                config=replace(config, announce_known=known),
            )
            self.checkpoints[(vm.vm_id, source)] = Checkpoint(
                vm_id=vm.vm_id,
                fingerprint=vm.fingerprint(),
                generation_vector=vm.tracker.snapshot(),
            )
            self.last_departed[vm.vm_id] = source
            sp.add_modelled(report.total_time_s)
            names.ENGINE_HOST_MIGRATIONS.add(1)
            return report
