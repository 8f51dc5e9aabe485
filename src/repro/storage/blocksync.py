"""Persistent-storage migration: synchronizing disk images across hosts.

Section 3.1: "If migrating the on-disk state is necessary, i.e.,
because the source and destination do not share their storage,
established techniques can be applied [16, 29]."  This module builds
that substrate so the repository covers the whole VM, not just RAM:

* a content-addressed :class:`DiskImage` of fixed-size blocks (64 KiB
  default — XvMotion/CloudNet operate on coarser units than pages);
* dirty-block tracking between synchronization points;
* :func:`plan_disk_sync` — the transfer plan under the same method
  taxonomy as memory: full copy, dirty-block tracking against the last
  sync, and content-hash reuse against whatever blocks the destination
  already has (an old replica — the disk analog of an old checkpoint);
* a cost evaluator combining link and disk models.

The structural result mirrors memory: hash-based reuse ⊆ dirty ⊆ full,
and a stale replica at the destination still eliminates the common
blocks (OS image, installed packages) that dominate a disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.transfer import Method, compute_transfer_set
from repro.net.link import Link
from repro.storage.disk import Disk

BLOCK_SIZE = 64 * 1024
"""Default sync granularity: 64 KiB blocks."""


class DiskImage:
    """A content-addressed virtual disk of fixed-size blocks.

    Mirrors :class:`~repro.mem.image.MemoryImage` at disk granularity;
    content ids model block contents, id 0 is an unallocated/zero block.
    """

    def __init__(self, num_blocks: int, block_size: int = BLOCK_SIZE) -> None:
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be > 0, got {num_blocks}")
        if block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {block_size}")
        self.block_size = block_size
        self._blocks = np.zeros(num_blocks, dtype=np.uint64)
        self._next_id = 1
        self._dirty: set[int] = set()

    @property
    def num_blocks(self) -> int:
        return int(self._blocks.shape[0])

    @property
    def size_bytes(self) -> int:
        return self.num_blocks * self.block_size

    @property
    def blocks(self) -> np.ndarray:
        view = self._blocks.view()
        view.flags.writeable = False
        return view

    def write(self, block_numbers: np.ndarray) -> None:
        """Overwrite blocks with fresh content; marks them dirty."""
        block_numbers = np.asarray(block_numbers, dtype=np.int64)
        if block_numbers.size == 0:
            return
        if block_numbers.min() < 0 or block_numbers.max() >= self.num_blocks:
            raise IndexError("block number out of range")
        fresh = np.arange(
            self._next_id, self._next_id + block_numbers.size, dtype=np.uint64
        )
        self._next_id += block_numbers.size
        self._blocks[block_numbers] = fresh
        self._dirty.update(int(b) for b in block_numbers)

    def write_content(self, block_number: int, content_id: int) -> None:
        """Write an explicit content id (e.g. a shared template block)."""
        if not 0 <= block_number < self.num_blocks:
            raise IndexError("block number out of range")
        self._blocks[block_number] = np.uint64(content_id)
        self._dirty.add(block_number)

    def snapshot(self) -> np.ndarray:
        """Copy of the per-block content ids."""
        return self._blocks.copy()

    def dirty_blocks(self) -> np.ndarray:
        """Blocks written since the last :meth:`clear_dirty`."""
        return np.asarray(sorted(self._dirty), dtype=np.int64)

    def clear_dirty(self) -> None:
        """Reset dirty tracking (after a completed synchronization)."""
        self._dirty.clear()


@dataclass(frozen=True)
class DiskSyncPlan:
    """What one disk synchronization must move.

    Attributes:
        blocks_full: Blocks whose bytes must cross the wire.
        blocks_reused: Blocks satisfied from the destination's replica.
        blocks_skipped: Blocks untouched since the last sync (dirty
            tracking) — nothing to do at all.
        num_blocks: Total blocks in the image.
        block_size: Bytes per block.
    """

    blocks_full: int
    blocks_reused: int
    blocks_skipped: int
    num_blocks: int
    block_size: int

    def __post_init__(self) -> None:
        total = self.blocks_full + self.blocks_reused + self.blocks_skipped
        if total != self.num_blocks:
            raise ValueError(
                f"block partition mismatch: {total} != {self.num_blocks}"
            )

    @property
    def transfer_bytes(self) -> int:
        return self.blocks_full * self.block_size

    @property
    def fraction_of_full(self) -> float:
        if self.num_blocks == 0:
            return 0.0
        return self.blocks_full / self.num_blocks


def plan_disk_sync(
    current: np.ndarray,
    destination_replica: Optional[np.ndarray] = None,
    dirty_blocks: Optional[np.ndarray] = None,
    block_size: int = BLOCK_SIZE,
) -> DiskSyncPlan:
    """Plan a disk synchronization.

    Args:
        current: Per-block content ids of the source disk.
        destination_replica: Per-block content ids of the (possibly
            stale) replica at the destination, or None for a cold copy.
        dirty_blocks: Blocks written since the replica was last in
            sync; None disables dirty tracking (all candidates).
        block_size: Bytes per block.

    Semantics are the memory taxonomy's, decided by the same kernel
    (:func:`~repro.core.transfer.compute_transfer_set`): blocks whose
    *content* exists anywhere in the replica are reused (``hashes``, the
    content-hash path of CloudNet [29]), and with a dirty set clean
    blocks are skipped outright (``dirty+hashes``); the rest travel in
    full.  A cold copy is the kernel's first visit: every block is sent.
    """
    current = Fingerprint(hashes=current)
    n = current.num_pages
    replica = None
    if destination_replica is not None:
        replica = Fingerprint(hashes=destination_replica)
        if replica.num_pages != n:
            raise ValueError(f"replica has {replica.num_pages} blocks, source has {n}")
    method = Method.HASHES if dirty_blocks is None else Method.DIRTY_HASHES
    blocks = compute_transfer_set(method, current, replica, dirty_blocks)
    return DiskSyncPlan(
        blocks_full=blocks.full_pages,
        blocks_reused=blocks.checksum_only_pages,
        blocks_skipped=blocks.skipped_pages,
        num_blocks=n,
        block_size=block_size,
    )


def disk_sync_seconds(
    plan: DiskSyncPlan,
    link: Link,
    source_disk: Disk,
    destination_disk: Disk,
) -> float:
    """Wall-clock estimate for executing ``plan``.

    Pipelined bottleneck of: reading the transferred blocks at the
    source, the wire, and writing them at the destination (reused
    blocks are local copies on the destination disk, overlapped with
    the transfer).
    """
    transfer = plan.transfer_bytes
    read_time = source_disk.sequential_read_time(transfer)
    wire_time = link.transfer_time(transfer)
    write_time = destination_disk.sequential_write_time(transfer)
    local_copy = destination_disk.random_read_time(
        plan.blocks_reused, block_size=plan.block_size
    )
    return max(read_time, wire_time, write_time + local_copy)
