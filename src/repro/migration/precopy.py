"""Multi-round pre-copy live migration simulator.

Implements the algorithm recapped in §3.1: a first round transfers the
whole memory (optimized per strategy in VeCycle — only pages absent from
the destination's checkpoint cross the wire), subsequent rounds transfer
the pages dirtied during the previous round, and a final stop-and-copy
round pauses the VM and moves the remainder.  VeCycle adapts *only the
first round*; later rounds send dirty pages verbatim, because a page
updated between rounds is unlikely to match content already present at
the destination.

Timing model — each phase is pipelined across three stages and the
phase's duration is its bottleneck stage:

* source CPU: checksumming outgoing pages (350 MiB/s MD5, §3.4);
* wire: the link's effective bandwidth (TCP-window-capped on the WAN);
* destination CPU + disk: verifying checksums of reusable pages against
  the preloaded image and random-reading relocated pages from the
  checkpoint file (Listing 1's merge).

The destination's sequential checkpoint load and the source's checkpoint
write are accounted separately and excluded from the migration time,
exactly as the paper does (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.checkpoint import Checkpoint, ChecksumIndex
from repro.core.checksum import PAGE_SIZE
from repro.core.compression import CompressionModel, NO_COMPRESSION
from repro.core.fingerprint import resize_fingerprint
from repro.core.protocol import announce_pages, first_round_traffic
from repro.core.strategies import MigrationStrategy
from repro.core.transfer import compute_transfer_set, slots_to_mask
from repro.migration.report import MigrationReport, RoundStats
from repro.migration.vm import SimVM
from repro.net.link import Link
from repro.obs import names
from repro.obs.trace import span as _span
from repro.storage.disk import Disk, HDD_HD204UI


@dataclass(frozen=True)
class PrecopyConfig:
    """Tunables of the pre-copy loop.

    Attributes:
        max_rounds: Hard cap on copy rounds before forcing stop-and-copy
            (QEMU behaves similarly to avoid livelock on write-heavy
            guests).
        downtime_target_s: Stop-and-copy is entered once the remaining
            dirty pages can be transferred within this pause budget.
        switchover_s: Fixed cost to quiesce the source and resume at the
            destination, added to the downtime.
        announce_known: True when the source already knows the
            destination's checkpoint hashes (ping-pong bookkeeping,
            §3.2) so the bulk announce is skipped.
        allow_resized_checkpoint: Reuse a checkpoint taken at a
            different memory size by padding/truncating its view —
            content-based reuse survives VM resizes even though slot
            bookkeeping does not.
        checksum_cores: Cores dedicated to page checksumming on each
            side.  §3.4 names multi-threaded execution as the way to
            lift the checksum-rate bound on fast links.
        compression: Optional migration-stream compression layered
            under the strategy (related work [24]); applies to
            full-page payloads in every round.
    """

    max_rounds: int = 30
    downtime_target_s: float = 0.3
    switchover_s: float = 0.02
    announce_known: bool = False
    allow_resized_checkpoint: bool = False
    checksum_cores: int = 1
    compression: CompressionModel = NO_COMPRESSION

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.checksum_cores < 1:
            raise ValueError(
                f"checksum_cores must be >= 1, got {self.checksum_cores}"
            )


def simulate_migration(
    vm: SimVM,
    strategy: MigrationStrategy,
    link: Link,
    checkpoint: Optional[Checkpoint] = None,
    dest_disk: Disk = HDD_HD204UI,
    source_disk: Disk = HDD_HD204UI,
    config: PrecopyConfig = PrecopyConfig(),
) -> MigrationReport:
    """Simulate one live migration of ``vm`` and return its report.

    Args:
        vm: The guest; it keeps dirtying pages while rounds run.
        strategy: Which transfer method the first round uses.
        link: Network path between source and destination.
        checkpoint: The old checkpoint available at the destination, or
            None on a first visit, decided by the kernel's first-visit
            rule as the live runtime decides it.
        dest_disk: Where the destination keeps the old checkpoint.
        source_disk: Where the source writes the new checkpoint.
        config: Pre-copy loop tunables.

    The VM's memory image is left in its post-migration state (including
    pages dirtied mid-flight), so callers can chain migrations.
    """
    with _span(
        "migration.simulate", vm=vm.vm_id, strategy=strategy.name, link=link.name
    ) as sp:
        report = _simulate_migration(
            vm, strategy, link, checkpoint, dest_disk, source_disk, config
        )
        sp.add_modelled(report.total_time_s)
        sp.set(tx_bytes=report.tx_bytes, rounds=len(report.rounds))
        _record_engine_metrics(report)
        return report


def _record_engine_metrics(report: MigrationReport) -> None:
    """Fold one analytic migration into the shared metrics registry."""
    names.ENGINE_MIGRATIONS.add(1)
    names.ENGINE_TX_BYTES.add(report.tx_bytes)
    names.ENGINE_ANNOUNCE_BYTES.add(report.announce_bytes)
    names.ENGINE_PAGES_FULL.add(report.pages_full)
    names.ENGINE_PAGES_REF.add(report.pages_ref)
    names.ENGINE_PAGES_CHECKSUM_ONLY.add(report.pages_checksum_only)
    rounds = names.ENGINE_ROUND_SECONDS.on()
    sizes = names.ENGINE_ROUND_BYTES.on()
    for stats in report.rounds:
        rounds.observe(stats.duration_s)
        sizes.observe(stats.bytes_sent)


def _simulate_migration(
    vm: SimVM,
    strategy: MigrationStrategy,
    link: Link,
    checkpoint: Optional[Checkpoint],
    dest_disk: Disk,
    source_disk: Disk,
    config: PrecopyConfig,
) -> MigrationReport:
    report = MigrationReport(
        strategy=strategy.name,
        vm_id=vm.vm_id,
        memory_bytes=vm.memory_bytes,
        link=link.name,
    )
    wire = strategy.wire
    checksum = strategy.checksum
    current = vm.fingerprint()

    usable_checkpoint = checkpoint
    if usable_checkpoint is not None and (
        usable_checkpoint.fingerprint.num_pages != vm.num_pages
    ):
        if not config.allow_resized_checkpoint:
            raise ValueError(
                "checkpoint page count "
                f"{usable_checkpoint.fingerprint.num_pages} != VM {vm.num_pages}"
                " (set allow_resized_checkpoint to reuse it anyway)"
            )
        # The VM was resized since the checkpoint: adapt the checkpoint
        # view (content reuse survives; in-place slot matches beyond the
        # old size do not exist).  Generation vectors are slot-addressed
        # and meaningless across a resize, so dirty tracking falls back
        # to the content proxy.
        usable_checkpoint = Checkpoint(
            vm_id=usable_checkpoint.vm_id,
            fingerprint=resize_fingerprint(
                usable_checkpoint.fingerprint, vm.num_pages
            ),
            generation_vector=None,
        )
    method = strategy.method
    if not method.uses_checkpoint:
        usable_checkpoint = None
    # From here on None is a first visit (or a method that uses none).

    # --- Destination setup phase (excluded from migration time, §4.4) ---
    index: Optional[ChecksumIndex] = None
    if usable_checkpoint is not None:
        with _span("migration.setup") as sp:
            ckpt_bytes = usable_checkpoint.size_bytes
            load_time = dest_disk.sequential_read_time(ckpt_bytes)
            # While streaming the file the destination hashes each 4 KiB
            # block to build the sorted checksum index (§3.3); disk and CPU
            # overlap, the slower one dominates.
            hash_time = checksum.seconds_for(ckpt_bytes) / config.checksum_cores
            report.setup_time_s = max(load_time, hash_time)
            index = usable_checkpoint.index
            report.similarity = current.similarity_to(usable_checkpoint.fingerprint)
            sp.add_modelled(report.setup_time_s)

    # --- Bulk checksum announce (destination -> source), §3.2 ---
    announce_time = 0.0
    announced = announce_pages(method, None if index is None else len(index), config.announce_known)
    if announced is not None:
        with _span("migration.checksum_exchange") as sp:
            announce_time = link.transfer_time(wire.announce_frame_bytes(announced))
            sp.set(announce_pages=announced).add_modelled(announce_time)

    # --- First copy round ---
    dirty_slots = None
    if method.uses_dirty_tracking and usable_checkpoint is not None:
        with _span("migration.dirty_scan") as sp:
            dirty_slots = vm.dirty_slots_since(usable_checkpoint)
            sp.set(dirty=int(len(dirty_slots)))

    with _span("migration.plan", method=method.value):
        transfer_set = compute_transfer_set(
            method,
            current,
            checkpoint=None if usable_checkpoint is None else usable_checkpoint.fingerprint,
            dirty_slots=dirty_slots,
            checkpoint_index=index,
        )
        traffic = first_round_traffic(
            transfer_set, wire, announce_unique_pages=announced
        )

    # Split the reusable pages into in-place (checksum verifies against
    # the preloaded image) vs relocated (random checkpoint read,
    # Listing 1's lseek path).  A candidate slot still holding its
    # checkpoint content is a member by construction, so the in-place
    # share needs no second membership pass.
    reused_in_place = transfer_set.checksum_only_pages
    reused_from_disk = 0
    if method.uses_hashes and usable_checkpoint is not None:
        in_place = current.hashes == usable_checkpoint.fingerprint.hashes
        if dirty_slots is not None:
            in_place &= slots_to_mask(dirty_slots, vm.num_pages)
        reused_in_place = int(np.count_nonzero(in_place))
        reused_from_disk = transfer_set.checksum_only_pages - reused_in_place

    cores = config.checksum_cores
    compression = config.compression
    with _span("migration.round", round_no=1) as round_span:
        # Compression applies to the page payload only; headers, checksums
        # and references are already minimal.
        raw_page_bytes = transfer_set.full_pages * PAGE_SIZE
        compressed_page_bytes = compression.compressed_bytes(raw_page_bytes)
        payload_bytes = traffic.payload_bytes - raw_page_bytes + compressed_page_bytes

        src_cpu = checksum.seconds_for(
            transfer_set.checksummed_pages * PAGE_SIZE
        ) / cores + compression.compress_time(raw_page_bytes, cores)
        wire_time = link.transfer_time(payload_bytes)
        dst_cpu = checksum.seconds_for(
            transfer_set.checksum_only_pages * PAGE_SIZE
        ) / cores + compression.decompress_time(raw_page_bytes, cores)
        dst_disk_time = dest_disk.random_read_time(reused_from_disk)
        round_time = max(src_cpu, wire_time, dst_cpu + dst_disk_time)

        dirtied = vm.run_for(round_time)
        report.rounds.append(
            RoundStats(
                round_no=1,
                pages_sent=transfer_set.full_pages,
                small_messages=transfer_set.ref_pages
                + transfer_set.checksum_only_pages,
                bytes_sent=payload_bytes,
                duration_s=round_time,
                dirty_after=len(dirtied),
            )
        )
        round_span.set(
            pages=transfer_set.full_pages, bytes=payload_bytes
        ).add_modelled(round_time)
    report.tx_bytes += payload_bytes
    report.announce_bytes = traffic.announce_bytes
    report.pages_full = transfer_set.full_pages
    report.pages_ref = transfer_set.ref_pages
    report.pages_checksum_only = transfer_set.checksum_only_pages
    report.pages_skipped = transfer_set.skipped_pages
    report.pages_reused_in_place = reused_in_place
    report.pages_reused_from_disk = reused_from_disk
    total_time = announce_time + round_time

    # --- Iterative dirty rounds (plain pages, §3.1) ---
    def dirty_round_bytes(num_pages: int) -> int:
        headers = num_pages * (wire.plain_page_message - PAGE_SIZE)
        return headers + compression.compressed_bytes(num_pages * PAGE_SIZE)

    def dirty_round_time(num_pages: int) -> float:
        raw = num_pages * PAGE_SIZE
        return max(
            link.transfer_time(dirty_round_bytes(num_pages)),
            compression.compress_time(raw, cores),
            compression.decompress_time(raw, cores),
        )

    dirty = np.unique(dirtied)
    round_no = 1
    while len(dirty) > 0 and round_no < config.max_rounds:
        remaining_bytes = dirty_round_bytes(len(dirty))
        projected = dirty_round_time(len(dirty))
        if projected <= config.downtime_target_s:
            break
        round_no += 1
        round_bytes = remaining_bytes
        duration = projected
        with _span("migration.round", round_no=round_no) as round_span:
            newly_dirty = np.unique(vm.run_for(duration))
            report.rounds.append(
                RoundStats(
                    round_no=round_no,
                    pages_sent=len(dirty),
                    small_messages=0,
                    bytes_sent=round_bytes,
                    duration_s=duration,
                    dirty_after=len(newly_dirty),
                )
            )
            round_span.set(
                pages=int(len(dirty)), bytes=round_bytes
            ).add_modelled(duration)
        report.tx_bytes += round_bytes
        total_time += duration
        dirty = newly_dirty

    # --- Stop-and-copy ---
    with _span("migration.stop_and_copy") as sp:
        final_bytes = dirty_round_bytes(len(dirty))
        downtime = config.switchover_s + (
            dirty_round_time(len(dirty)) if len(dirty) else 0.0
        )
        if len(dirty):
            report.rounds.append(
                RoundStats(
                    round_no=round_no + 1,
                    pages_sent=len(dirty),
                    small_messages=0,
                    bytes_sent=final_bytes,
                    duration_s=downtime,
                    dirty_after=0,
                )
            )
            report.tx_bytes += final_bytes
        report.downtime_s = downtime
        report.total_time_s = total_time + downtime
        sp.set(pages=int(len(dirty))).add_modelled(downtime)

    # --- Source writes the new checkpoint (excluded from time, §4.4) ---
    with _span("migration.checkpoint_write") as sp:
        report.checkpoint_write_time_s = source_disk.sequential_write_time(
            vm.memory_bytes
        )
        sp.add_modelled(report.checkpoint_write_time_s)
    return report

