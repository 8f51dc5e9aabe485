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
stored VM memory snapshot with its index; the model keeps one per
``(VM, host)`` pair in :class:`repro.migration.engine.Hosts`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.checksum import PAGE_SIZE
from repro.core.fingerprint import Fingerprint


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
