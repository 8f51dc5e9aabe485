"""The simulated virtual machine seen by the migration engine.

A :class:`SimVM` owns a content-addressed memory image, a Miyakodori
generation tracker, and a simple in-migration write model: while a live
migration is in flight, the guest keeps running and dirties pages at a
configurable rate within a working set.  The pre-copy engine advances
the VM by each round's duration and collects the newly dirtied slots —
this is what makes multi-round pre-copy behave like the real thing
(§3.1's recap).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.checkpoint import Checkpoint
from repro.core.dirty import GenerationTracker
from repro.core.fingerprint import Fingerprint
from repro.mem.image import MemoryImage


def expected_distinct(writes: float, pool_size: int) -> int:
    """Expected number of distinct slots hit by ``writes`` uniform writes.

    Standard coupon-collector occupancy: ``P * (1 - exp(-w / P))`` for a
    pool of ``P`` pages.  Re-writes of the same hot page do not enlarge
    the dirty set, which is why pre-copy converges for workloads with
    write locality.
    """
    if pool_size <= 0 or writes <= 0:
        return 0
    return int(round(pool_size * (1.0 - np.exp(-writes / pool_size))))


class SimVM:
    """A simulated VM: memory image + write-rate model + dirty tracking.

    Args:
        vm_id: Stable identifier (checkpoints are keyed by it).
        memory_bytes: Guest RAM size; must be a multiple of the page size.
        dirty_rate_pages_per_s: Guest page writes per second while the VM
            runs.  0 models the §4.4 idle VM (background daemons only
            are modelled via a tiny default floor — pass exactly 0 for a
            perfectly quiescent guest).
        working_set_fraction: Fraction of memory the in-flight writes
            land in.  Locality below 1.0 makes pre-copy converge.
        recall_fraction: Share of writes that restore previously seen
            content (page cache re-reads) instead of creating new
            bytes — the mechanism that separates content-based
            redundancy elimination from dirty tracking (§4.3).  Zero by
            default: every write then produces never-seen content.
        seed: RNG seed for the write model.
    """

    def __init__(
        self,
        vm_id: str,
        memory_bytes: int,
        dirty_rate_pages_per_s: float = 0.0,
        working_set_fraction: float = 0.1,
        recall_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        if dirty_rate_pages_per_s < 0:
            raise ValueError(
                f"dirty_rate_pages_per_s must be >= 0, got {dirty_rate_pages_per_s}"
            )
        if not 0 < working_set_fraction <= 1:
            raise ValueError(
                f"working_set_fraction must be in (0, 1], got {working_set_fraction}"
            )
        if not 0.0 <= recall_fraction <= 1.0:
            raise ValueError(
                f"recall_fraction must be in [0, 1], got {recall_fraction}"
            )
        self.vm_id = vm_id
        # Namespace the content-id allocator by seed: same-seed VMs are
        # intentional byte-level replicas; different seeds never share
        # fresh ids with each other or with foreign checkpoints.
        self.image = MemoryImage.from_bytes_size(memory_bytes, namespace=seed)
        self.tracker = GenerationTracker(self.image.num_pages)
        self.dirty_rate_pages_per_s = dirty_rate_pages_per_s
        self.recall_fraction = recall_fraction
        self._rng = np.random.default_rng(seed)
        ws_pages = max(1, int(self.image.num_pages * working_set_fraction))
        self.working_set = self._rng.choice(
            self.image.num_pages, size=ws_pages, replace=False
        )
        self.clock_s = 0.0
        # Ring buffer of previously seen contents available for recall.
        self._recall_pool = np.zeros(0, dtype=np.uint64)
        self._recall_capacity = 4096

    @property
    def memory_bytes(self) -> int:
        return self.image.size_bytes

    @property
    def num_pages(self) -> int:
        return self.image.num_pages

    def fingerprint(self) -> Fingerprint:
        """Snapshot the VM's memory at the current simulated time."""
        return self.image.fingerprint(timestamp=self.clock_s)

    def dirty_slots_since(self, checkpoint: Checkpoint) -> np.ndarray:
        """Slots written since ``checkpoint``: its generation vector when
        it has one (Miyakodori's mechanism), else the content proxy."""
        if checkpoint.generation_vector is not None:
            return self.tracker.dirty_since(checkpoint.generation_vector)
        return self.fingerprint().dirty_slots(since=checkpoint.fingerprint)

    def write_slots(self, slots: np.ndarray) -> None:
        """Apply guest writes to ``slots``.

        A ``recall_fraction`` share of the writes restores content the
        guest held before (drawn from an internal pool of overwritten
        contents); the rest is fresh, never-seen data.  Every written
        slot advances its generation counter regardless — dirty
        tracking cannot tell the two apart, content hashes can.
        """
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return
        self._remember(slots)
        recall_count = int(round(slots.size * self.recall_fraction))
        recall_count = min(recall_count, len(self._recall_pool))
        if recall_count:
            contents = self._rng.choice(
                self._recall_pool, size=recall_count, replace=False
            )
            for slot, content in zip(slots[:recall_count], contents):
                self.image.write_content(np.asarray([slot]), content)
            self.image.write_fresh(slots[recall_count:])
        else:
            self.image.write_fresh(slots)
        self.tracker.record_writes(slots)

    def _remember(self, slots: np.ndarray) -> None:
        """Add a sample of the soon-overwritten contents to the pool."""
        if self.recall_fraction == 0.0:
            return
        sample = slots[: min(64, slots.size)]
        contents = self.image.slots[sample]
        contents = contents[contents != 0]
        if contents.size == 0:
            return
        self._recall_pool = np.concatenate([self._recall_pool, contents])
        if len(self._recall_pool) > self._recall_capacity:
            self._recall_pool = self._recall_pool[-self._recall_capacity :]

    def run_for(self, seconds: float) -> np.ndarray:
        """Advance the guest by ``seconds``; return the dirtied slots.

        Writes land uniformly in the working set; the number of distinct
        dirtied slots follows the occupancy model of
        :func:`expected_distinct`.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self.clock_s += seconds
        writes = self.dirty_rate_pages_per_s * seconds
        distinct = expected_distinct(writes, len(self.working_set))
        if distinct == 0:
            return np.empty(0, dtype=np.int64)
        slots = self._rng.choice(self.working_set, size=distinct, replace=False)
        self.write_slots(slots)
        return slots

    @classmethod
    def idle(cls, vm_id: str, memory_bytes: int, seed: int = 0) -> "SimVM":
        """An idle VM: the §4.4 best-case scenario (no in-flight writes)."""
        return cls(vm_id, memory_bytes, dirty_rate_pages_per_s=0.0, seed=seed)

    @classmethod
    def from_image(
        cls,
        vm_id: str,
        image: MemoryImage,
        dirty_rate_pages_per_s: float = 0.0,
        working_set_fraction: float = 0.1,
        seed: int = 0,
    ) -> "SimVM":
        """Wrap an existing (already populated) memory image."""
        vm = cls(
            vm_id,
            image.size_bytes,
            dirty_rate_pages_per_s=dirty_rate_pages_per_s,
            working_set_fraction=working_set_fraction,
            seed=seed,
        )
        vm.image = image
        vm.tracker = GenerationTracker(image.num_pages)
        return vm
