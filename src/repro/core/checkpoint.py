"""Checkpoints and the destination-side checksum index.

Section 3.3: when a host prepares for an incoming migration it reads the
old checkpoint file sequentially, initializing guest RAM, and while doing
so records *one checksum per 4 KiB block together with the file offset*
in a sorted list, "such that we can use binary search to quickly find the
offset for a given checksum".

:class:`ChecksumIndex` is that structure over content ids (a sorted hash
array plus the slot each hash first occupies, binary search via
:func:`numpy.searchsorted`); the live runtime's durable counterpart is
the pack index of :mod:`repro.storage.repository`.  :class:`Checkpoint` is a
stored VM memory snapshot with its index, and :class:`CheckpointStore`
is the per-host collection of checkpoints, one per VM the host has seen
(the "store a checkpoint at each visited server" policy, with an
optional capacity bound and LRU eviction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.checksum import PAGE_SIZE
from repro.core.fingerprint import Fingerprint


class CapacityError(ValueError):
    """A checkpoint cannot fit the store's capacity bound.

    Raised either when a single checkpoint exceeds the capacity
    outright, or when making room would require evicting the incoming
    VM's own checkpoint (the store never cannibalizes the checkpoint it
    is being asked to keep).  Subclasses :class:`ValueError` so existing
    callers that caught that keep working.
    """


class ChecksumIndex:
    """Sorted checksum → slot index over a checkpoint's pages.

    For duplicate contents, the index keeps the *first* slot holding
    that content — any copy is as good as another for reconstructing a
    page (Listing 1's ``lookup(checksum)``).
    """

    def __init__(self, fingerprint: Fingerprint) -> None:
        hashes = fingerprint.hashes
        order = np.argsort(hashes, kind="stable")
        sorted_hashes = hashes[order]
        # Keep the first occurrence of each distinct hash.
        keep = np.ones(sorted_hashes.shape[0], dtype=bool)
        keep[1:] = sorted_hashes[1:] != sorted_hashes[:-1]
        self._hashes = sorted_hashes[keep]
        self._slots = order[keep]

    def __len__(self) -> int:
        return int(self._hashes.shape[0])

    def __contains__(self, page_hash: int) -> bool:
        return self.lookup(page_hash) is not None

    def lookup(self, page_hash: int) -> Optional[int]:
        """Binary-search for ``page_hash``; return its page slot or None."""
        page_hash = np.uint64(page_hash)
        pos = int(np.searchsorted(self._hashes, page_hash))
        if pos < len(self._hashes) and self._hashes[pos] == page_hash:
            return int(self._slots[pos])
        return None

    def contains_many(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an array of hashes."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        pos = np.searchsorted(self._hashes, hashes)
        pos = np.clip(pos, 0, len(self._hashes) - 1) if len(self._hashes) else pos
        if len(self._hashes) == 0:
            return np.zeros(hashes.shape, dtype=bool)
        return self._hashes[pos] == hashes

    def lookup_many(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup`: page slot per hash, ``-1`` on miss.

        One ``searchsorted`` over the whole batch replaces a binary
        search per page — the bulk equivalent of Listing 1's
        ``lookup(checksum)`` for the sender's announced-hash scan.
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        slots = np.full(hashes.shape, -1, dtype=np.int64)
        if len(self._hashes) == 0:
            return slots
        pos = np.searchsorted(self._hashes, hashes)
        np.clip(pos, 0, len(self._hashes) - 1, out=pos)
        hit = self._hashes[pos] == hashes
        slots[hit] = self._slots[pos[hit]]
        return slots

    @property
    def unique_hashes(self) -> np.ndarray:
        """The sorted distinct hashes — what the destination announces (§3.2)."""
        view = self._hashes.view()
        view.flags.writeable = False
        return view


@dataclass
class Checkpoint:
    """A stored memory snapshot of one VM on one host.

    Attributes:
        vm_id: Which VM this checkpoint belongs to.
        fingerprint: The per-page content hashes at checkpoint time.
        generation_vector: Optional per-slot generation counters captured
            alongside the checkpoint (Miyakodori's mechanism, §4.3).
        index: Lazily built :class:`ChecksumIndex`.
    """

    vm_id: str
    fingerprint: Fingerprint
    generation_vector: Optional[np.ndarray] = None
    _index: Optional[ChecksumIndex] = field(default=None, repr=False)

    @property
    def index(self) -> ChecksumIndex:
        if self._index is None:
            self._index = ChecksumIndex(self.fingerprint)
        return self._index

    @property
    def size_bytes(self) -> int:
        """On-disk size: the full memory image (one block per slot)."""
        return self.fingerprint.num_pages * PAGE_SIZE

    @property
    def timestamp(self) -> float:
        return self.fingerprint.timestamp


class CheckpointStore:
    """Per-host checkpoint storage with optional capacity bound.

    The paper argues local storage is "cheap and abundant", so the
    default is unbounded; a ``capacity_bytes`` bound with LRU eviction is
    provided for the consolidation-server case where one host stores
    checkpoints for many desktops.

    ``on_evict`` is called with every checkpoint the store drops —
    capacity eviction, explicit :meth:`evict`, replacement by a newer
    checkpoint of the same VM — so callers holding per-page state
    elsewhere (a content-addressed store, a durable repository) can
    release it instead of leaking.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        on_evict: Optional[Callable[[Checkpoint], None]] = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.on_evict = on_evict
        self._checkpoints: Dict[str, Checkpoint] = {}
        self._clock = 0
        self._last_used: Dict[str, int] = {}
        self._used_bytes = 0

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __contains__(self, vm_id: str) -> bool:
        return vm_id in self._checkpoints

    @property
    def used_bytes(self) -> int:
        """Bytes currently stored — a maintained total, O(1) to read.

        (Recomputing ``sum()`` here made capacity eviction O(n²): the
        eviction loop calls this once per victim.)
        """
        return self._used_bytes

    def store(self, checkpoint: Checkpoint) -> None:
        """Store (or replace) the checkpoint for ``checkpoint.vm_id``.

        A newer checkpoint of the same VM replaces the old one — the
        paper keeps one checkpoint per (VM, host) pair.  If a capacity
        bound is set, least-recently-used checkpoints of *other* VMs are
        evicted to make room: the incoming VM's own (replaced)
        checkpoint is subtracted first and is never an eviction victim.

        Raises:
            CapacityError: if the checkpoint alone exceeds the capacity,
                or no amount of evicting *other* VMs can make room.
        """
        if self.capacity_bytes is not None:
            if checkpoint.size_bytes > self.capacity_bytes:
                raise CapacityError(
                    f"checkpoint of {checkpoint.size_bytes} bytes for VM "
                    f"{checkpoint.vm_id!r} exceeds store capacity "
                    f"{self.capacity_bytes} on its own"
                )
            # The same VM's old checkpoint is being replaced: drop it
            # before sizing the shortfall, so its bytes are not
            # double-counted against innocent victims.
            self._drop(checkpoint.vm_id)
            while self._used_bytes + checkpoint.size_bytes > self.capacity_bytes:
                victims = {
                    vm_id: used
                    for vm_id, used in self._last_used.items()
                    if vm_id != checkpoint.vm_id
                }
                if not victims:
                    raise CapacityError(
                        f"checkpoint of {checkpoint.size_bytes} bytes for VM "
                        f"{checkpoint.vm_id!r} does not fit: "
                        f"{self._used_bytes} of {self.capacity_bytes} bytes "
                        "used and no other VM's checkpoint left to evict"
                    )
                self.evict(min(victims, key=victims.get))
        else:
            self._drop(checkpoint.vm_id)
        self._clock += 1
        self._checkpoints[checkpoint.vm_id] = checkpoint
        self._last_used[checkpoint.vm_id] = self._clock
        self._used_bytes += checkpoint.size_bytes

    def get(self, vm_id: str) -> Optional[Checkpoint]:
        """The stored checkpoint for ``vm_id``, or None; refreshes LRU."""
        checkpoint = self._checkpoints.get(vm_id)
        if checkpoint is not None:
            self._clock += 1
            self._last_used[vm_id] = self._clock
        return checkpoint

    def _drop(self, vm_id: str) -> Optional[Checkpoint]:
        """Remove ``vm_id`` with bookkeeping and the eviction callback."""
        dropped = self._checkpoints.pop(vm_id, None)
        self._last_used.pop(vm_id, None)
        if dropped is not None:
            self._used_bytes -= dropped.size_bytes
            if self.on_evict is not None:
                self.on_evict(dropped)
        return dropped

    def evict(self, vm_id: str) -> None:
        """Drop the checkpoint for ``vm_id``; silently ignores unknown ids."""
        self._drop(vm_id)

    def vm_ids(self) -> list[str]:
        """Sorted ids of all VMs with a stored checkpoint."""
        return sorted(self._checkpoints)

    def save(self, path: Path | str) -> None:
        """Persist the store's checkpoints to a compressed ``.npz``.

        A host reboot must not lose its recycling state — the stored
        fingerprints, timestamps, and Miyakodori generation vectors all
        survive the round trip.  (In a real deployment the page *bytes*
        live in the per-VM checkpoint files; this persists the
        metadata the migration logic consults.)
        """
        path = Path(path)
        arrays: Dict[str, np.ndarray] = {}
        names = []
        for index, vm_id in enumerate(self.vm_ids()):
            checkpoint = self._checkpoints[vm_id]
            names.append(vm_id)
            arrays[f"hashes{index:04d}"] = checkpoint.fingerprint.hashes
            arrays[f"ts{index:04d}"] = np.asarray(checkpoint.fingerprint.timestamp)
            if checkpoint.generation_vector is not None:
                arrays[f"gen{index:04d}"] = checkpoint.generation_vector
        np.savez_compressed(
            path,
            vm_ids=np.asarray(names),
            capacity=np.asarray(self.capacity_bytes or -1),
            **arrays,
        )

    @classmethod
    def load(cls, path: Path | str) -> "CheckpointStore":
        """Restore a store previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            capacity = int(data["capacity"])
            store = cls(capacity_bytes=None if capacity < 0 else capacity)
            for index, vm_id in enumerate(data["vm_ids"]):
                generation_key = f"gen{index:04d}"
                store.store(
                    Checkpoint(
                        vm_id=str(vm_id),
                        fingerprint=Fingerprint(
                            hashes=data[f"hashes{index:04d}"],
                            timestamp=float(data[f"ts{index:04d}"]),
                        ),
                        generation_vector=(
                            data[generation_key]
                            if generation_key in data.files
                            else None
                        ),
                    )
                )
            return store
