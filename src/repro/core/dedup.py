"""Sender-side deduplication (the CloudNet-style baseline).

Section 4.2: CloudNet deduplicates at the migration source.  The sender
hashes each outgoing page; if the hash matches a previously *sent* page
and the pages are byte-identical, only a small index into the receiver's
cache is sent instead of the full page.  Because both the original page
and its candidate match live at the sender, a weak hash plus a local
byte comparison suffices — no strong checksum needed.

The per-migration cache is :func:`first_occurrence` over the send
stream: the first copy of a content travels, every repeat is a hit.
A hit travels as a REF frame (:data:`repro.core.protocol.FRAMES`), the
small fixed-size index CloudNet sends.
"""

from __future__ import annotations

import numpy as np


def first_occurrence(values: np.ndarray, return_targets: bool = False):
    """Which elements are the first occurrence of their value.

    Returns a boolean mask over ``values``; with ``return_targets`` also
    the position of the first occurrence of every element's value (an
    element's own position where the mask is true) — the slot a dedup
    reference points at.  This is the one place "the first copy travels,
    repeats refer to it" is computed: the decision kernel and the live
    planner's reference targets call it.

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

