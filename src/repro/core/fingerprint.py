"""Memory fingerprints and their similarity metric.

Section 2.1 of the paper: a machine with ``m`` bytes of memory and page
size ``s`` has ``n = m/s`` pages; a *fingerprint* ``F`` is the list of
per-page hashes ``h(p_0) .. h(p_{n-1})``.  ``U`` denotes the set of
*unique* hashes in a fingerprint — fewer than ``n`` because many pages
share content (shared libraries, zero pages).

Section 2.3 defines the similarity of two fingerprints as the fraction of
shared unique hashes::

    similarity(Fa, Fb) = |Ua ∩ Ub| / |Ua|

This module implements fingerprints over 64-bit page-content hashes (the
representation both the synthetic trace generator and the migration
simulator use).  The zero page has the reserved hash value
:data:`ZERO_HASH` so zero-page statistics (Figure 4, right plot) are
queryable without storing page bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

ZERO_HASH = np.uint64(0)
"""Reserved content hash for the all-zeros page."""


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values — ``np.unique`` without its hash-table pass.

    ``np.unique`` on integer dtypes routes through a hash-based
    deduplication that is an order of magnitude slower than a plain
    sort for page-hash arrays; sort-then-mask returns the identical
    array and is the single hottest primitive of the similarity sweep.
    """
    values = np.asarray(values)
    if values.shape[0] == 0:
        return values.copy()
    ordered = np.sort(values)
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


@dataclass(frozen=True)
class Fingerprint:
    """One memory fingerprint: per-page content hashes at a point in time.

    Attributes:
        hashes: ``uint64`` array, one content hash per page *slot* (page
            frame), index = page number.  Hash equality models content
            equality; the trace pipeline guarantees no accidental
            collisions by construction (hashes are content ids).
        timestamp: Seconds since the start of the trace (the paper bins
            fingerprint pairs by this delta in 30-minute buckets).
    """

    hashes: np.ndarray
    timestamp: float = 0.0
    _unique_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        hashes = np.asarray(self.hashes, dtype=np.uint64)
        if hashes.ndim != 1:
            raise ValueError(f"hashes must be 1-D, got shape {hashes.shape}")
        object.__setattr__(self, "hashes", hashes)

    @property
    def num_pages(self) -> int:
        """Number of page slots (``n`` in the paper's notation)."""
        return int(self.hashes.shape[0])

    def unique_hashes(self) -> np.ndarray:
        """Sorted array of unique page hashes (the set ``U``)."""
        cached = self._unique_cache.get("unique")
        if cached is None:
            cached = sorted_unique(self.hashes)
            self._unique_cache["unique"] = cached
        return cached

    @property
    def num_unique(self) -> int:
        """``|U|`` — the number of distinct page contents."""
        return int(self.unique_hashes().shape[0])

    def duplicate_fraction(self) -> float:
        """Fraction of duplicate pages: ``1 - unique/total`` (§4.2).

        This is the redundancy exploitable by sender-side deduplication;
        Figure 4 plots it over time for the traced machines.
        """
        if self.num_pages == 0:
            return 0.0
        return 1.0 - self.num_unique / self.num_pages

    def zero_fraction(self) -> float:
        """Fraction of page slots holding the all-zeros page (Figure 4)."""
        if self.num_pages == 0:
            return 0.0
        return float(np.count_nonzero(self.hashes == ZERO_HASH)) / self.num_pages

    def similarity_to(self, other: "Fingerprint") -> float:
        """``|U_self ∩ U_other| / |U_self|`` (§2.3).

        Note the metric is asymmetric: it is the fraction of *this*
        fingerprint's unique contents that also exist in ``other``.  In
        the checkpoint-reuse reading, ``self`` is the VM's current state
        and ``other`` the old checkpoint — the similarity is the fraction
        of current content already available at the destination.
        """
        mine = self.unique_hashes()
        if mine.shape[0] == 0:
            return 0.0
        shared = np.intersect1d(mine, other.unique_hashes(), assume_unique=True)
        return shared.shape[0] / mine.shape[0]

    def dirty_slots(self, since: "Fingerprint") -> np.ndarray:
        """Page numbers whose content changed since fingerprint ``since``.

        This is the trace proxy for dirty-page tracking the paper uses in
        §4.3 ("given two fingerprints we say a page is dirty if its
        content changed between the two fingerprints").  Requires both
        fingerprints to cover the same number of page slots.
        """
        if self.num_pages != since.num_pages:
            raise ValueError(
                "dirty_slots requires equal page counts: "
                f"{self.num_pages} vs {since.num_pages}"
            )
        return np.nonzero(self.hashes != since.hashes)[0]


def resize_fingerprint(fingerprint: Fingerprint, num_pages: int) -> Fingerprint:
    """Adapt a fingerprint to a VM that was resized to ``num_pages``.

    VMs get ballooned and resized between migrations; a checkpoint taken
    at the old size is still valuable because content-based reuse only
    needs the *set* of contents, not matching slot counts.  Growing pads
    with zero pages (new memory starts zeroed); shrinking truncates (the
    paper's slot-addressed checkpoint file loses its tail).  The
    original fingerprint is not modified.

    Raises:
        ValueError: if ``num_pages`` is not positive.
    """
    if num_pages <= 0:
        raise ValueError(f"num_pages must be > 0, got {num_pages}")
    if num_pages == fingerprint.num_pages:
        return fingerprint
    if num_pages < fingerprint.num_pages:
        hashes = fingerprint.hashes[:num_pages].copy()
    else:
        hashes = np.concatenate(
            [
                fingerprint.hashes,
                np.full(num_pages - fingerprint.num_pages, ZERO_HASH, dtype=np.uint64),
            ]
        )
    return Fingerprint(hashes=hashes, timestamp=fingerprint.timestamp)


def similarity_matrix(fingerprints: Iterable[Fingerprint]) -> np.ndarray:
    """All-pairs similarity matrix ``S[a, b] = similarity(Fa, Fb)``.

    Quadratic in the number of fingerprints; intended for trace-analysis
    runs (a 7-day, 30-minute trace has 336 fingerprints → ~56 k pairs,
    matching the paper's §2.3 arithmetic).
    """
    prints = list(fingerprints)
    n = len(prints)
    matrix = np.zeros((n, n), dtype=np.float64)
    uniques = [fp.unique_hashes() for fp in prints]
    for a in range(n):
        ua = uniques[a]
        if ua.shape[0] == 0:
            continue
        for b in range(n):
            if a == b:
                matrix[a, b] = 1.0
                continue
            shared = np.intersect1d(ua, uniques[b], assume_unique=True)
            matrix[a, b] = shared.shape[0] / ua.shape[0]
    return matrix
