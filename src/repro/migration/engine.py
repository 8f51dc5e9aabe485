"""Host-aware migration orchestration.

:func:`migrate_between_hosts` is the top-level entry point the examples
and benchmarks use: it resolves the destination's stored checkpoint,
applies the §3.2 ping-pong announce shortcut when the source already
knows the destination's page hashes, runs the pre-copy simulation, and
performs the VeCycle bookkeeping afterwards — the source writes a fresh
checkpoint of the departed VM, and both sides remember each other's page
hashes for the next round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.host import Host
from repro.core.checkpoint import Checkpoint
from repro.core.strategies import MigrationStrategy
from repro.migration.precopy import PrecopyConfig, simulate_migration
from repro.migration.report import MigrationReport
from repro.migration.vm import SimVM
from repro.net.link import Link
from repro.obs import names
from repro.obs.trace import span as _span


@dataclass(frozen=True)
class TransferContext:
    """Everything host state contributes to one migration's setup.

    Resolved once before a migration starts and shared by both execution
    paths: the analytic simulation (:func:`migrate_between_hosts`) and
    the live runtime (:mod:`repro.runtime`), which maps ``checkpoint``
    to an installed daemon checkpoint and ``announce_known`` to the
    source's ``known_remote``.
    """

    checkpoint: Optional[Checkpoint]
    announce_known: bool


def resolve_transfer_context(
    vm: SimVM,
    source: Host,
    destination: Host,
    strategy: MigrationStrategy,
    config: PrecopyConfig = PrecopyConfig(),
) -> TransferContext:
    """Resolve checkpoint reuse and the ping-pong shortcut for one move.

    The destination contributes its stored checkpoint (if the strategy
    reuses one); the source contributes whether it already knows the
    destination's page hashes from a previous opposite-direction
    migration (§3.2), which suppresses the bulk announce.
    """
    if source is destination:
        raise ValueError("source and destination must differ")
    checkpoint = (
        destination.checkpoint_for(vm.vm_id) if strategy.reuses_checkpoint else None
    )
    return TransferContext(
        checkpoint=checkpoint,
        announce_known=config.announce_known
        or source.knows_peer_hashes(vm.vm_id, destination.name),
    )


def record_migration_outcome(
    vm: SimVM, source: Host, destination: Host
) -> Checkpoint:
    """Post-migration bookkeeping shared by the simulated and live paths.

    The source stores a checkpoint of the outgoing VM (the paper's core
    mechanism) together with the generation vector Miyakodori needs —
    captured at the end of the migration, identical to what the
    destination now holds.  Both hosts then remember each other's page
    hashes: the receiver tracked incoming checksums, the sender knows
    what it just sent (§3.2), which is what makes the next migration's
    announce unnecessary.
    """
    checkpoint = Checkpoint(
        vm_id=vm.vm_id,
        fingerprint=vm.fingerprint(),
        generation_vector=vm.tracker.snapshot(),
    )
    source.save_checkpoint(checkpoint)
    destination.learn_peer_hashes(vm.vm_id, source.name)
    source.learn_peer_hashes(vm.vm_id, destination.name)
    return checkpoint


def migrate_between_hosts(
    vm: SimVM,
    source: Host,
    destination: Host,
    strategy: MigrationStrategy,
    link: Link,
    config: PrecopyConfig = PrecopyConfig(),
) -> MigrationReport:
    """Migrate ``vm`` from ``source`` to ``destination`` and do bookkeeping.

    After the call the VM logically runs at ``destination``; ``source``
    holds a checkpoint of the VM taken at the end of the migration, and
    the ping-pong hash knowledge is updated on both hosts.

    Returns the :class:`~repro.migration.report.MigrationReport`.
    """
    with _span(
        "engine.migrate",
        vm=vm.vm_id,
        source=source.name,
        destination=destination.name,
        strategy=strategy.name,
    ) as sp:
        with _span("engine.resolve_context") as resolve_span:
            context = resolve_transfer_context(
                vm, source, destination, strategy, config
            )
            resolve_span.set(
                checkpoint=context.checkpoint is not None,
                announce_known=context.announce_known,
            )
        report = simulate_migration(
            vm,
            strategy,
            link,
            checkpoint=context.checkpoint,
            dest_disk=destination.disk,
            source_disk=source.disk,
            config=replace(config, announce_known=context.announce_known),
        )
        with _span("engine.record_outcome"):
            record_migration_outcome(vm, source, destination)
        sp.add_modelled(report.total_time_s)
        names.ENGINE_HOST_MIGRATIONS.add(1)
        return report


def ping_pong(
    vm: SimVM,
    host_a: Host,
    host_b: Host,
    strategy: MigrationStrategy,
    link: Link,
    round_trips: int = 1,
    between_migrations=None,
    config: PrecopyConfig = PrecopyConfig(),
) -> list[MigrationReport]:
    """Migrate a VM back and forth between two hosts (§4.4's benchmark).

    Args:
        round_trips: Number of A→B→A round trips (two migrations each).
        between_migrations: Optional callable ``(vm, migration_index)``
            invoked before every migration to mutate the guest (e.g. the
            §4.5 controlled ramdisk updates).

    Returns one report per migration, in order.
    """
    if round_trips <= 0:
        raise ValueError(f"round_trips must be > 0, got {round_trips}")
    reports = []
    hosts = [host_a, host_b]
    location = 0
    for migration_index in range(2 * round_trips):
        if between_migrations is not None:
            between_migrations(vm, migration_index)
        source, destination = hosts[location], hosts[1 - location]
        reports.append(
            migrate_between_hosts(vm, source, destination, strategy, link, config)
        )
        location = 1 - location
    return reports
