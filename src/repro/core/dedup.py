"""Sender-side deduplication (the CloudNet-style baseline).

Section 4.2: CloudNet deduplicates at the migration source.  The sender
hashes each outgoing page; if the hash matches a previously *sent* page
and the pages are byte-identical, only a small index into the receiver's
cache is sent instead of the full page.  Because both the original page
and its candidate match live at the sender, a weak hash plus a local
byte comparison suffices — no strong checksum needed.

:class:`DedupCache` models this per-migration cache.  The cost model
charges :data:`DEDUP_REF_BYTES` for a cache-hit reference, matching the
small fixed-size index CloudNet sends.
"""

from __future__ import annotations

from typing import Iterable, Set

import numpy as np

from repro.core.fingerprint import sorted_unique

DEDUP_REF_BYTES = 8
"""Wire size of a 'page equals cache entry N' reference message."""


class DedupCache:
    """Tracks which page contents have already been sent this migration."""

    def __init__(self) -> None:
        self._seen: Set[int] = set()

    def __len__(self) -> int:
        return len(self._seen)

    def offer(self, content_hash: int) -> bool:
        """Record an outgoing page; return True if it was already sent.

        A True return means the sender may transmit a reference instead
        of the full page.
        """
        content_hash = int(content_hash)
        if content_hash in self._seen:
            return True
        self._seen.add(content_hash)
        return False

    def reset(self) -> None:
        """Clear the cache — dedup state does not survive a migration."""
        self._seen.clear()


def dedup_unique_count(hashes: Iterable[int] | np.ndarray) -> int:
    """Number of full pages a dedup-only sender transmits.

    Equal to the number of *distinct* contents among the outgoing pages:
    the first occurrence of each content goes over the wire in full,
    every repeat becomes a reference.
    """
    array = np.asarray(list(hashes) if not isinstance(hashes, np.ndarray) else hashes)
    if array.size == 0:
        return 0
    return int(sorted_unique(array).shape[0])


def first_occurrence(values: np.ndarray, return_targets: bool = False):
    """Which elements are the first occurrence of their value.

    Returns a boolean mask over ``values``; with ``return_targets`` also
    the position of the first occurrence of every element's value (an
    element's own position where the mask is true) — the slot a dedup
    reference points at.  This is the one place "the first copy travels,
    repeats refer to it" is computed: the decision kernel, the live
    planner's reference targets and the gang stream all call it.

    An unstable argsort groups equal values and the smallest position in
    a group is its first occurrence, which avoids the stable sort
    ``np.unique(..., return_index=True)`` pays for.
    """
    values = np.asarray(values)
    n = values.shape[0]
    order = np.argsort(values)
    ordered = values[order]
    starts = np.ones(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    firsts = np.minimum.reduceat(order, np.flatnonzero(starts)) if n else order
    is_first = np.zeros(n, dtype=bool)
    is_first[firsts] = True
    if not return_targets:
        return is_first
    targets = np.empty(n, dtype=np.int64)
    targets[order] = firsts[np.cumsum(starts) - 1]
    return is_first, targets


def dedup_split(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split outgoing page slots into (full-page sends, reference sends).

    Args:
        hashes: Content hash per outgoing page, in send order.

    Returns:
        ``(full_mask, ref_mask)`` boolean masks over the input: the first
        occurrence of each content is a full send, repeats are references.
    """
    full_mask = first_occurrence(hashes)
    return full_mask, ~full_mask
