"""Figure 6: best-case migration of an idle VM (≈100% similarity).

The paper migrates an idle Ubuntu VM back and forth between two hosts
for memory sizes of 1–6 GiB, over the gigabit LAN and the emulated WAN,
and reports migration time and source send traffic.  QEMU's time grows
linearly with size (bandwidth-bound); VeCycle's grows with the checksum
rate instead, giving ×3–4 on the LAN and two orders of magnitude less
traffic (−93%…−94% WAN time, −76% LAN traffic annotations).

The experiment here mirrors the setup: populate an idle VM, record the
checkpoint its earlier out-migration left at the destination, let half
an hour of idle activity pass, then measure the return migration with
each strategy.  The §4.4 HDD-vs-SSD observation (checkpoint disk does
not matter) is exposed via the ``dest_disk`` parameter and asserted by
the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.checkpoint import Checkpoint
from repro.core.strategies import MigrationStrategy, QEMU, VECYCLE
from repro.mem.mutation import boot_populate
from repro.migration.precopy import PrecopyConfig, simulate_migration
from repro.migration.report import MigrationReport
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE, Link, WAN_CLOUDNET
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.storage.disk import Disk, HDD_HD204UI

log = get_logger(__name__)

MIB = 2**20

PAPER_SIZES_MIB = (1024, 2048, 4096, 6144)


@dataclass(frozen=True)
class BestCaseRow:
    """One (size, link, strategy) cell of Figure 6."""

    size_mib: int
    link: str
    strategy: str
    report: MigrationReport

    @property
    def time_s(self) -> float:
        return self.report.total_time_s

    @property
    def tx_gib(self) -> float:
        return self.report.tx_gib


def _idle_vm(size_mib: int, seed: int, dirty_rate: float) -> SimVM:
    """An idle VM in steady state: memory almost fully used (§4.4 notes
    the OS aggressively uses free memory for the page cache)."""
    vm = SimVM(
        "idle-vm",
        size_mib * MIB,
        dirty_rate_pages_per_s=dirty_rate,
        working_set_fraction=0.02,
        seed=seed,
    )
    boot_populate(
        vm.image,
        np.random.default_rng(seed),
        used_fraction=0.97,
        duplicate_fraction=0.05,
        zero_fraction=0.03,
    )
    return vm


def run(
    sizes_mib: Sequence[int] = PAPER_SIZES_MIB,
    links: Sequence[Link] = (LAN_1GBE, WAN_CLOUDNET),
    # The paper's hardware: its prototype's MD5 at 350 MiB/s (§3.4).
    strategies: Sequence[MigrationStrategy] = (QEMU, VECYCLE.with_checksum("md5")),
    dest_disk: Disk = HDD_HD204UI,
    idle_dirty_rate: float = 8.0,
    seed: int = 42,
) -> List[BestCaseRow]:
    """Measure every (size, link, strategy) combination.

    ``idle_dirty_rate`` models the idle guest's background daemons
    (a few pages per second); it is what keeps the similarity just shy
    of 100% and gives pre-copy a tiny second round, like real idle VMs.
    """
    rows: List[BestCaseRow] = []
    log.info(
        "running best-case sweep",
        sizes=list(sizes_mib),
        links=[link.name for link in links],
        strategies=[strategy.name for strategy in strategies],
    )
    with _span("experiment.fig6", cells=len(sizes_mib) * len(links) * len(strategies)):
        for size_mib in sizes_mib:
            for link in links:
                for strategy in strategies:
                    vm = _idle_vm(size_mib, seed, idle_dirty_rate)
                    checkpoint = None
                    if strategy.reuses_checkpoint:
                        # The VM migrated away from this host earlier; the
                        # host kept a checkpoint.  A little idle activity
                        # happened since (30 simulated minutes).
                        checkpoint = Checkpoint(
                            vm_id=vm.vm_id,
                            fingerprint=vm.fingerprint(),
                            generation_vector=vm.tracker.snapshot(),
                        )
                        vm.run_for(1800.0)
                    row = BestCaseRow(
                        size_mib=size_mib,
                        link=link.name,
                        strategy=strategy.name,
                        report=simulate_migration(
                            vm,
                            strategy,
                            link,
                            checkpoint=checkpoint,
                            dest_disk=dest_disk,
                            config=PrecopyConfig(announce_known=True),
                        ),
                    )
                    log.debug(
                        "cell done",
                        size_mib=size_mib,
                        link=link.name,
                        strategy=strategy.name,
                        time_s=round(row.time_s, 2),
                    )
                    rows.append(row)
    return rows


def reduction_percent(rows: List[BestCaseRow], size_mib: int, link: str,
                      metric: str = "time_s") -> float:
    """The figure's annotation: VeCycle's % reduction vs QEMU."""
    cell = {row.strategy: getattr(row, metric) for row in rows
            if row.size_mib == size_mib and row.link == link}
    baseline = cell["qemu"]
    return (baseline - cell["vecycle"]) / baseline * 100.0 if baseline else 0.0


def format_table(rows: List[BestCaseRow]) -> str:
    """Render the Figure 6 grid plus the reduction annotations."""
    lines = [
        f"{'Size':>6s} {'Link':<12s} {'Strategy':<10s} {'Time':>9s} "
        f"{'Downtime':>9s} {'Tx':>10s} {'Rounds':>6s}",
        "-" * 68,
    ]
    for row in rows:
        lines.append(
            f"{row.size_mib:4d}Mi {row.link:<12s} {row.strategy:<10s} "
            f"{row.time_s:8.1f}s {row.report.downtime_s * 1000:7.1f}ms "
            f"{row.tx_gib:9.3f}G {row.report.num_rounds:6d}"
        )
    links = sorted({row.link for row in rows})
    sizes = sorted({row.size_mib for row in rows})
    lines.append("")
    for link in links:
        reductions = ", ".join(
            f"{size}Mi: -{reduction_percent(rows, size, link):.0f}%"
            for size in sizes
        )
        lines.append(f"VeCycle time reduction over QEMU [{link}]: {reductions}")
    return "\n".join(lines)
