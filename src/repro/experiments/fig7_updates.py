"""Figure 7: controlled update rates on a 4 GiB ramdisk VM.

The paper allocates a ramdisk covering 90% of a 4 GiB VM, fills it with
random data, migrates, then randomly updates 25/50/75/100% of the
ramdisk before migrating back.  VeCycle's migration time and traffic
grow proportionally with the update percentage and converge to the flat
QEMU baseline at 100%; the WAN shows the same correlation with larger
absolute times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import Checkpoint
from repro.core.strategies import MigrationStrategy, QEMU, VECYCLE, get_strategy
from repro.mem.mutation import fill_ramdisk, update_region_fraction
from repro.migration.precopy import PrecopyConfig, simulate_migration
from repro.migration.report import MigrationReport
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE, Link, WAN_CLOUDNET, get_link
from repro.parallel import pmap

MIB = 2**20

PAPER_UPDATE_PERCENTS = (0, 25, 50, 75, 100)


@dataclass(frozen=True)
class UpdateSweepRow:
    """One (update %, link, strategy) cell of Figure 7."""

    updates_percent: int
    link: str
    strategy: str
    report: MigrationReport

    @property
    def time_s(self) -> float:
        return self.report.total_time_s

    @property
    def tx_gib(self) -> float:
        return self.report.tx_gib


def _sweep_cell(
    cell: Tuple[int, str, str, str],
    memory_mib: int,
    ramdisk_fraction: float,
    seed: int,
) -> UpdateSweepRow:
    """One (update %, link, strategy) cell, fully self-contained.

    The shard payload is four scalars — the link, the strategy and its
    checksum travel by registry *name* (their checksum closures don't
    pickle) and the VM is rebuilt inside the worker from the
    namespace-keyed seed, so results are byte-identical at any worker
    count.
    """
    percent, link_name, strategy_name, checksum_name = cell
    link = get_link(link_name)
    strategy = get_strategy(strategy_name).with_checksum(checksum_name)
    rng = np.random.default_rng(seed)
    vm = SimVM(
        "ramdisk-vm",
        memory_mib * MIB,
        dirty_rate_pages_per_s=0.0,
        seed=seed,
    )
    region = fill_ramdisk(vm.image, fraction=ramdisk_fraction)
    checkpoint = Checkpoint(
        vm_id=vm.vm_id,
        fingerprint=vm.fingerprint(),
        generation_vector=vm.tracker.snapshot(),
    )
    updated = update_region_fraction(vm.image, region, percent / 100.0, rng)
    vm.tracker.record_writes(updated)
    return UpdateSweepRow(
        updates_percent=percent,
        link=link.name,
        strategy=strategy.name,
        report=simulate_migration(
            vm,
            strategy,
            link,
            checkpoint=checkpoint if strategy.reuses_checkpoint else None,
            config=PrecopyConfig(announce_known=True),
        ),
    )


def run(
    updates_percent: Sequence[int] = PAPER_UPDATE_PERCENTS,
    links: Sequence[Link] = (LAN_1GBE, WAN_CLOUDNET),
    # The paper's hardware: its prototype's MD5 at 350 MiB/s (§3.4).
    strategies: Sequence[MigrationStrategy] = (QEMU, VECYCLE.with_checksum("md5")),
    memory_mib: int = 4096,
    ramdisk_fraction: float = 0.90,
    seed: int = 7,
    workers: Optional[int] = None,
) -> List[UpdateSweepRow]:
    """Run the §4.5 sweep.

    For each cell: build the VM, fill the ramdisk, checkpoint (the state
    the previous out-migration left at the destination), apply the
    controlled updates, then migrate with the strategy under test.
    Cells are independent, so ``workers > 1`` fans them out across a
    process pool (byte-identical results at any worker count).
    """
    for percent in updates_percent:
        if not 0 <= percent <= 100:
            raise ValueError(f"update percent must be in [0, 100], got {percent}")
    cells = [
        (percent, link.name, strategy.name, strategy.checksum.name)
        for percent in updates_percent
        for link in links
        for strategy in strategies
    ]
    shard = partial(
        _sweep_cell,
        memory_mib=memory_mib,
        ramdisk_fraction=ramdisk_fraction,
        seed=seed,
    )
    return pmap(shard, cells, workers=workers)


def format_table(rows: List[UpdateSweepRow]) -> str:
    """Render the update-rate sweep as the Figure 7 series."""
    lines = [
        f"{'Updates':>7s} {'Link':<12s} {'Strategy':<10s} {'Time':>9s} {'Tx':>10s}",
        "-" * 52,
    ]
    for row in rows:
        lines.append(
            f"{row.updates_percent:6d}% {row.link:<12s} {row.strategy:<10s} "
            f"{row.time_s:8.1f}s {row.tx_gib:9.3f}G"
        )
    return "\n".join(lines)
