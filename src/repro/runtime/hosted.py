"""Hosted checkpoints and the sketch the cluster inventory lists.

A daemon keeps a :class:`HostedCheckpoint` for every VM that left it;
the control plane sees each one as a **bottom-k sketch** (the k
lexicographically smallest distinct digests).  A daemon cannot ship
every digest on every heartbeat — a 4 GiB image is a million of them —
and bottom-k sketches are a classic MinHash variant: for two digest
sets A and B, the fraction of the k smallest elements of A ∪ B that
appear in both sketches is an unbiased estimate of the Jaccard
similarity |A ∩ B| / |A ∪ B| — exactly the "how much of this VM's
memory does that host already hold" question VeCycle-aware placement
asks (§2.2), at k·digest_size bytes per checkpoint instead of the full
index.

The daemon reports each checkpoint's :attr:`HostedCheckpoint.sketch`
and :mod:`repro.orchestrator.inventory` parses it: both import this
module, which imports neither.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Iterable, List

import numpy as np

from repro.core.checksum import ChecksumAlgorithm

SKETCH_K = 64
"""Sketch size: 64 digests bound the similarity estimate's standard
error near 1/√64 ≈ 12% — coarse, but placement only needs to rank
hosts, and ties break deterministically."""


def digest_sketch(digests: Iterable[bytes]) -> List[str]:
    """Bottom-:data:`SKETCH_K` sketch of a digest set, as sorted hex strings.

    Hex encoding preserves byte order, so "k smallest hex strings" and
    "k smallest digests" agree: the bottom-k is taken on the raw bytes
    and only the k survivors are encoded.  Hex also makes the sketch
    JSON-safe for the INVENTORY frame.

    ``digests`` are one checksum algorithm's, so all of one size, and
    may repeat a digest; each counts once.  From 8 bytes on, they are
    cut by their big-endian 8-byte prefixes: a numpy partition finds
    the k-th smallest prefix, every digest whose prefix is no larger is
    a candidate (ties included, so the result is exact), and only the
    candidates are compared whole.  No set of every digest is built.
    Shorter digests, lengths that do not add up to one size, and inputs
    of at most k digests take ``heapq.nsmallest`` over the set.
    """
    if not isinstance(digests, (list, tuple, set, frozenset)):
        digests = list(digests)
    count = len(digests)
    blob = b"".join(digests) if count > SKETCH_K else b""
    size = len(blob) // count if blob else 0
    if size < 8 or len(blob) != size * count:
        return [d.hex() for d in heapq.nsmallest(SKETCH_K, set(digests))]
    prefixes = np.ndarray(
        (count,), dtype=">u8", buffer=blob, strides=(size,)
    ).astype(np.uint64)
    wanted = SKETCH_K
    while True:
        cut = np.partition(prefixes, wanted - 1)[wanted - 1]
        starts = (np.flatnonzero(prefixes <= cut) * size).tolist()
        candidates = {blob[at : at + size] for at in starts}
        # Every digest outside has a larger prefix than each candidate,
        # so k distinct candidates hold the k smallest.  Fewer means
        # repeats filled the cut: widen it.
        if len(candidates) >= SKETCH_K or len(starts) == count:
            return [d.hex() for d in sorted(candidates)[:SKETCH_K]]
        wanted = min(2 * wanted, count)


@dataclass
class HostedCheckpoint:
    """A checkpoint as the daemon stores it: per-slot page checksums.

    The page *bytes* live in the host-wide content store; the checkpoint
    itself is just the slot → checksum map plus bookkeeping, mirroring
    the paper's split between the checkpoint file and its in-memory
    checksum index (§3.3).
    """

    vm_id: str
    slot_digests: List[bytes]
    """Never mutated once the checkpoint exists (an adoption builds a
    new object), which is what lets the views below be computed once."""
    algorithm: ChecksumAlgorithm
    """What named the slots: a migration hashing with another algorithm
    finds nothing to recycle here (:meth:`CheckpointDaemon._checkpoint_for`)."""
    timestamp: float = field(default=0.0, compare=False)
    generation: int = field(default=0, compare=False)
    """Monotonic per-VM adoption counter; lets a returning source prove
    its remembered digest set is current and skip the announce."""

    @property
    def num_pages(self) -> int:
        return len(self.slot_digests)

    @cached_property
    def distinct(self) -> FrozenSet[bytes]:
        """The distinct checksums — the one walk over ``slot_digests``
        the sketch is derived from."""
        return frozenset(self.slot_digests)

    @cached_property
    def announce_digests(self) -> List[bytes]:
        """The distinct checksums in first-occurrence slot order — the
        §3.2 bulk announce body.  The source reads it as a set, so any
        order serves; this one costs no sort."""
        return list(dict.fromkeys(self.slot_digests))

    @cached_property
    def sketch(self) -> List[str]:
        """Bottom-:data:`SKETCH_K` similarity sketch of
        :attr:`distinct` — what an INVENTORY reports for this VM."""
        return digest_sketch(self.distinct)

    def inherit_views(self, previous: "HostedCheckpoint") -> None:
        """Take over the views ``previous`` already derived; it must have
        the same slot digests (an unchanged image adopted over itself)."""
        for view in ("distinct", "announce_digests", "sketch"):
            if view in previous.__dict__:
                self.__dict__[view] = previous.__dict__[view]
