"""Content-addressed VM memory images.

The trace generator and the migration simulator model a VM's RAM as an
array of 64-bit *content ids*, one per page slot.  Two slots with equal
ids hold byte-identical pages; id :data:`~repro.core.fingerprint.ZERO_HASH`
is the all-zeros page.  This captures exactly the information the paper's
analyses consume — per-page hashes — while letting us simulate multi-GiB
VMs without allocating their bytes.

Fresh writes allocate globally unique content ids from a monotonically
increasing counter, so a newly written page never aliases existing
content unless the workload explicitly duplicates a page.  When real
bytes are needed (the live runtime in :mod:`repro.runtime`),
:class:`repro.mem.pagestore.PageStore` materializes a deterministic
4 KiB block per content id.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.checksum import PAGE_SIZE
from repro.core.fingerprint import ZERO_HASH, Fingerprint


# Process-global content-id allocator.  Content ids must be unique
# across *all* images in a process: fingerprints produced by one image
# flow into checkpoints, traces, and other images (restore/resize), and
# a per-image counter would let two images hand out the same id for
# different content — a phantom match.  Boxed in a list so clones can
# keep sharing it.
#
# FORK/SPAWN ALIASING HAZARD: this counter is *process*-global, not
# machine-global.  A forked worker inherits the parent's counter
# position, so two sibling workers allocate the SAME ids for DIFFERENT
# content; merging their fingerprints then manufactures phantom
# content matches (pages that compare equal by id but were never
# byte-identical).  Spawned workers restart at 1 and alias the parent
# instead.  Multiprocess code must therefore either (a) build every
# image from an explicit ``namespace`` seed — what the trace generator
# does, and what ``repro.parallel`` requires of its shard functions —
# or (b) call :func:`isolate_worker_allocator` at worker startup, which
# ``repro.parallel``'s pool initializer does as defense in depth.
_GLOBAL_NEXT_ID = [np.uint64(1)]

_WORKER_NAMESPACE_BIT = np.uint64(1) << np.uint64(63)
"""High bit reserved for worker-isolated allocator ranges, keeping them
disjoint from both the parent's global ids (which start at 1) and any
explicit ``namespace`` range (bits 40..62)."""


def isolate_worker_allocator(worker_key: int) -> None:
    """Move this process's global allocator into a private id range.

    Called by ``repro.parallel``'s worker initializer with the worker
    pid.  After the call, ids allocated through the global counter carry
    the top bit plus a 23-bit fold of ``worker_key``, so they can never
    collide with ids the parent (or a sibling worker) already handed
    out.  This guards against the fork-aliasing hazard above; it does
    NOT make global-allocator ids reproducible across runs — shard
    functions that need determinism must build images with explicit
    ``namespace`` seeds.
    """
    folded = (int(worker_key) % ((1 << 23) - 1)) + 1
    _GLOBAL_NEXT_ID[0] = _WORKER_NAMESPACE_BIT | np.uint64((folded << 40) + 1)


class MemoryImage:
    """A mutable, content-addressed memory image of a fixed page count.

    Args:
        num_pages: Number of page slots.
        zero_filled: If True (default), all slots start as zero pages —
            the state of a freshly booted machine (§2.1 notes freshly
            (re)booted machines have many zero pages).

    Fresh content ids come from a process-global allocator by default,
    so ids stay unique across every image, trace, and checkpoint in a
    run; two slots are byte-identical iff their ids are equal, full
    stop.  Passing a ``namespace`` instead gives the image its own
    deterministic allocator (ids start at ``(namespace+1) << 40``):
    regenerating the same workload from the same seed then reproduces
    identical ids — and two images built from the *same* namespace with
    the same write sequence are intentional byte-level replicas.
    """

    def __init__(
        self,
        num_pages: int,
        zero_filled: bool = True,
        namespace: Optional[int] = None,
    ) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be > 0, got {num_pages}")
        self._slots = np.zeros(num_pages, dtype=np.uint64)
        if namespace is None:
            self._next_id = _GLOBAL_NEXT_ID
        else:
            if namespace < 0:
                raise ValueError(f"namespace must be >= 0, got {namespace}")
            # 23 bits of namespace, 40 bits of local counter: wide seeds
            # fold into the namespace field (same-fold seeds would share
            # an id range, which only matters if their write sequences
            # also diverge — vanishingly unlikely and detectable).
            folded = (namespace % ((1 << 23) - 1)) + 1
            self._next_id = [np.uint64((folded << 40) + 1)]
        if not zero_filled:
            self.write_fresh(np.arange(num_pages))

    @classmethod
    def from_bytes_size(
        cls,
        memory_bytes: int,
        page_size: int = PAGE_SIZE,
        namespace: Optional[int] = None,
    ) -> "MemoryImage":
        """Build an image for a VM with ``memory_bytes`` of RAM."""
        if memory_bytes <= 0 or memory_bytes % page_size:
            raise ValueError(
                f"memory_bytes must be a positive multiple of {page_size}, got {memory_bytes}"
            )
        return cls(memory_bytes // page_size, namespace=namespace)

    @property
    def num_pages(self) -> int:
        return int(self._slots.shape[0])

    @property
    def size_bytes(self) -> int:
        return self.num_pages * PAGE_SIZE

    @property
    def slots(self) -> np.ndarray:
        """Read-only view of the per-slot content ids."""
        view = self._slots.view()
        view.flags.writeable = False
        return view

    def _allocate(self, count: int) -> np.ndarray:
        start = int(self._next_id[0])
        self._next_id[0] = np.uint64(start + count)
        return np.arange(start, start + count, dtype=np.uint64)

    def _check_slots(self, slots: np.ndarray) -> np.ndarray:
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size and (slots.min() < 0 or slots.max() >= self.num_pages):
            raise IndexError(
                f"slot indices must be in [0, {self.num_pages}), "
                f"got range [{slots.min()}, {slots.max()}]"
            )
        return slots

    def write_fresh(self, slots: np.ndarray) -> None:
        """Overwrite ``slots`` with brand-new, globally unique content.

        Models writes of previously unseen data (e.g. filling a ramdisk
        with random bytes, §4.5).
        """
        slots = self._check_slots(slots)
        self._slots[slots] = self._allocate(slots.size)

    def write_duplicate_of(self, slots: np.ndarray, source_slot: int) -> None:
        """Make ``slots`` byte-identical copies of ``source_slot``.

        Models intra-VM duplicate pages (shared libraries, page cache)
        that sender-side deduplication exploits (§4.2).
        """
        slots = self._check_slots(slots)
        source = self._check_slots(np.asarray([source_slot]))[0]
        self._slots[slots] = self._slots[source]

    def write_content(self, slots: np.ndarray, content_id: np.uint64) -> None:
        """Set ``slots`` to an explicit content id (e.g. a shared-pool page)."""
        slots = self._check_slots(slots)
        self._slots[slots] = np.uint64(content_id)

    def write_contents(self, slots: np.ndarray, content_ids: np.ndarray) -> None:
        """Elementwise: set ``slots[i]`` to ``content_ids[i]``.

        The batched form of :meth:`write_content` — one call for a whole
        recall batch instead of one call per page.
        """
        slots = self._check_slots(slots)
        content_ids = np.asarray(content_ids, dtype=np.uint64)
        if content_ids.shape[0] != slots.shape[0]:
            raise ValueError(
                f"slots and content_ids must match: {slots.shape[0]} vs "
                f"{content_ids.shape[0]}"
            )
        self._slots[slots] = content_ids

    def write_duplicates_from(
        self, slots: np.ndarray, source_slots: np.ndarray
    ) -> None:
        """Elementwise: make ``slots[i]`` a copy of ``source_slots[i]``.

        The batched form of :meth:`write_duplicate_of` for duplicate
        write bursts (shared libraries, page cache).  Semantics match
        the equivalent sequential loop exactly: a source that is itself
        a target earlier in the batch contributes its *newly written*
        contents.  ``slots`` must be distinct.
        """
        slots = self._check_slots(slots)
        source_slots = self._check_slots(source_slots)
        if source_slots.shape[0] != slots.shape[0]:
            raise ValueError(
                f"slots and source_slots must match: {slots.shape[0]} vs "
                f"{source_slots.shape[0]}"
            )
        gathered = self._slots[source_slots]
        # Bitmap probe instead of np.isin: O(pages) marks beat a sort of
        # the batch on every epoch's duplicate burst.
        is_target = np.zeros(self.num_pages, dtype=bool)
        is_target[slots] = True
        colliding = is_target[source_slots]
        if colliding.any():
            # Rare: a source slot is also overwritten by this batch.
            # Resolve those entries in loop order; each target slot is
            # written once, so gathered[i] is final once index i passes.
            position_of = {int(slot): i for i, slot in enumerate(slots)}
            for j in np.nonzero(colliding)[0]:
                i = position_of.get(int(source_slots[j]))
                if i is not None and i < j:
                    gathered[j] = gathered[i]
        self._slots[slots] = gathered

    def zero(self, slots: np.ndarray) -> None:
        """Zero-fill ``slots`` (freed memory returned to the allocator)."""
        slots = self._check_slots(slots)
        self._slots[slots] = ZERO_HASH

    def relocate(self, slots: np.ndarray, rng: np.random.Generator) -> None:
        """Permute the contents of ``slots`` among themselves.

        Models pages *moving around in physical memory* without their
        content changing — the case Figure 5 highlights where
        Miyakodori's dirty tracking overestimates the transfer set while
        content-based redundancy elimination does not.
        """
        slots = self._check_slots(slots)
        if slots.size < 2:
            return
        permuted = rng.permutation(slots)
        self._slots[slots] = self._slots[permuted]

    def fingerprint(self, timestamp: float = 0.0) -> Fingerprint:
        """Snapshot the image as an immutable :class:`Fingerprint`."""
        return Fingerprint(hashes=self._slots.copy(), timestamp=timestamp)

    def clone(self) -> "MemoryImage":
        """Deep-copy the slot array; the id allocator stays shared."""
        twin = MemoryImage.__new__(MemoryImage)
        twin._slots = self._slots.copy()
        twin._next_id = self._next_id
        return twin

    def restore(self, fingerprint: Fingerprint) -> None:
        """Reset the image's contents to a previously taken fingerprint."""
        if fingerprint.num_pages != self.num_pages:
            raise ValueError(
                "fingerprint page count mismatch: "
                f"{fingerprint.num_pages} vs {self.num_pages}"
            )
        self._slots = fingerprint.hashes.copy()

    def sample_slots(
        self,
        count: int,
        rng: np.random.Generator,
        within: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sample ``count`` distinct slot indices, optionally from ``within``."""
        pool_size = self.num_pages if within is None else len(within)
        count = min(count, pool_size)
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        picks = rng.choice(pool_size, size=count, replace=False)
        return picks if within is None else np.asarray(within)[picks]
