"""Per-slot first-round planning for the live runtime.

:func:`repro.core.transfer.compute_transfer_set` *counts* how many slots
each method handles which way; a live sender needs the actual per-slot
decision and, for dedup references, the concrete earlier slot to point
at.  This module computes exactly that, with the same semantics — the
test suite asserts the planner's counts equal the analytic transfer set
for every method, which is the hinge the runtime-vs-model
cross-validation turns on.

One representational difference: the analytic path tests checkpoint
membership on 64-bit content ids, the runtime on the *real checksums*
of the materialized pages (that is what the destination announces over
the wire, §3.2).  :class:`~repro.mem.pagestore.PageStore` makes the
id → bytes mapping injective, so both membership tests agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.transfer import Method

KIND_SKIP = 0
KIND_PLAIN = 1
KIND_FULL = 2
KIND_CHECKSUM = 3
KIND_REF = 4

KIND_NAMES = {
    KIND_PLAIN: "plain",
    KIND_FULL: "full",
    KIND_CHECKSUM: "checksum",
    KIND_REF: "ref",
}


@dataclass(frozen=True)
class PageSend:
    """One planned message."""

    kind: int
    slot: int
    content_id: int
    ref: int = -1


@dataclass(frozen=True)
class RoundSends:
    """One round's message sequence as parallel arrays, in send order.

    This is the form the source streams from: row ``i`` is the message
    ``PageSend(kinds[i], slots[i], content_ids[i], refs[i])``, and
    "skip the first N messages" is a slice.
    """

    kinds: np.ndarray
    slots: np.ndarray
    content_ids: np.ndarray
    refs: np.ndarray

    def __len__(self) -> int:
        return int(self.slots.shape[0])

    def as_list(self) -> List[PageSend]:
        """The same sequence as one :class:`PageSend` per message."""
        return [
            PageSend(kind, slot, content_id, ref)
            for kind, slot, content_id, ref in zip(
                self.kinds.tolist(),
                self.slots.tolist(),
                self.content_ids.tolist(),
                self.refs.tolist(),
            )
        ]


@dataclass
class FirstRoundPlan:
    """Per-slot handling for one migration's first copy round."""

    method: Method
    kinds: np.ndarray
    refs: np.ndarray
    content_ids: np.ndarray
    checksummed_pages: int

    @property
    def num_slots(self) -> int:
        return int(self.kinds.shape[0])

    def count(self, kind: int) -> int:
        """Number of slots planned as ``kind`` (one of the KIND_* codes)."""
        return int(np.count_nonzero(self.kinds == kind))

    @property
    def full_pages(self) -> int:
        """Slots whose page bytes cross the wire (with or without checksum)."""
        return self.count(KIND_FULL) + self.count(KIND_PLAIN)

    @property
    def ref_pages(self) -> int:
        return self.count(KIND_REF)

    @property
    def checksum_only_pages(self) -> int:
        return self.count(KIND_CHECKSUM)

    @property
    def skipped_pages(self) -> int:
        return self.count(KIND_SKIP)

    def round_sends(self) -> RoundSends:
        """The message sequence, in ascending slot order.

        Slot order is deterministic, which is what makes mid-round
        resume possible: source and sink agree on the meaning of
        "the first N messages of round R" without negotiation.  It also
        guarantees a dedup reference always points at an already-sent
        slot (the first occurrence of the content precedes every
        repeat).
        """
        slots = np.nonzero(self.kinds != KIND_SKIP)[0]
        return RoundSends(
            kinds=self.kinds[slots],
            slots=slots,
            content_ids=self.content_ids[slots],
            refs=self.refs[slots],
        )

    def sends(self) -> List[PageSend]:
        """:meth:`round_sends` as a list of :class:`PageSend`."""
        return self.round_sends().as_list()


def _dedup_within(
    hashes: np.ndarray, candidate_mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split candidate slots into first occurrences and repeats.

    Returns ``(slots, targets, is_first)``: candidate slot indices in
    slot order, the slot holding the first occurrence of each slot's
    content, and a mask of which candidates are that first occurrence.
    Mirrors :func:`repro.core.dedup.dedup_split` applied to the
    candidate subsequence.
    """
    slots = np.nonzero(candidate_mask)[0]
    if slots.size == 0:
        return slots, slots.copy(), np.zeros(0, dtype=bool)
    sub = hashes[slots]
    _, first_pos, inverse = np.unique(sub, return_index=True, return_inverse=True)
    targets = slots[first_pos[inverse]]
    is_first = targets == slots
    return slots, targets, is_first


def membership_mask(
    hashes: np.ndarray,
    announced: FrozenSet[bytes],
    digest_of: Callable[[int], bytes],
    digest_many: Optional[Callable[[np.ndarray], List[bytes]]] = None,
) -> np.ndarray:
    """Which slots hold content the destination announced.

    Digests are computed once per *distinct* content id — hashing cost
    scales with unique contents, not slots, exactly like the prototype's
    per-content checksum pass.  ``digest_many`` (when given) digests the
    whole distinct-id batch in one call — e.g.
    :meth:`~repro.mem.pagestore.PageStore.digests_for` — instead of one
    ``digest_of`` call per id.
    """
    unique_ids, inverse = np.unique(hashes, return_inverse=True)
    if digest_many is not None:
        digests = digest_many(unique_ids)
    else:
        digests = [digest_of(int(cid)) for cid in unique_ids]
    unique_member = np.fromiter(
        (digest in announced for digest in digests),
        dtype=bool,
        count=unique_ids.shape[0],
    )
    return unique_member[inverse]


def plan_first_round(
    method: Method,
    hashes: np.ndarray,
    announced: Optional[FrozenSet[bytes]] = None,
    digest_of: Optional[Callable[[int], bytes]] = None,
    dirty_slots: Optional[np.ndarray] = None,
    digest_many: Optional[Callable[[np.ndarray], List[bytes]]] = None,
) -> FirstRoundPlan:
    """Plan the first copy round of a live migration.

    Args:
        method: Transfer-set semantics (same enum the analytic path uses).
        hashes: Per-slot content ids of the VM at migration time.
        announced: The destination's announced checksum set; required
            for hash-based methods (pass an empty set on a first visit —
            every page then goes in full, the degraded mode §3.2
            implies).
        digest_of: content id → real page checksum, required with
            ``announced``.
        dirty_slots: Slots written since the destination's checkpoint;
            required for dirty-tracking methods.
        digest_many: Optional batched variant of ``digest_of`` taking an
            array of distinct content ids.
    """
    hashes = np.asarray(hashes, dtype=np.uint64)
    n = int(hashes.shape[0])
    kinds = np.full(n, KIND_SKIP, dtype=np.int8)
    refs = np.full(n, -1, dtype=np.int64)

    if method.uses_hashes:
        if announced is None or digest_of is None:
            raise ValueError(
                f"method {method.value} needs the announced checksum set "
                "and a digest function"
            )
    if method.uses_dirty_tracking:
        if dirty_slots is None:
            raise ValueError(f"method {method.value} needs dirty_slots")
        dirty_mask = np.zeros(n, dtype=bool)
        dirty_mask[np.asarray(dirty_slots, dtype=np.int64)] = True
    else:
        dirty_mask = np.ones(n, dtype=bool)

    if method is Method.FULL:
        kinds[:] = KIND_PLAIN
        checksummed = 0
    elif method in (Method.DEDUP, Method.DIRTY, Method.DIRTY_DEDUP):
        if method is Method.DIRTY:
            kinds[dirty_mask] = KIND_PLAIN
            checksummed = 0
        else:
            slots, targets, is_first = _dedup_within(hashes, dirty_mask)
            kinds[slots[is_first]] = KIND_PLAIN
            kinds[slots[~is_first]] = KIND_REF
            refs[slots[~is_first]] = targets[~is_first]
            # Dedup hashes every outgoing candidate (weak hash + local
            # byte compare), same charge as the analytic model.
            checksummed = int(slots.size)
    else:
        # Content-based redundancy elimination, optionally pre-filtered
        # by dirty tracking and post-filtered by dedup.
        member = membership_mask(hashes, announced, digest_of, digest_many)
        reuse_mask = dirty_mask & member
        send_mask = dirty_mask & ~member
        kinds[reuse_mask] = KIND_CHECKSUM
        if method.uses_dedup:
            slots, targets, is_first = _dedup_within(hashes, send_mask)
            kinds[slots[is_first]] = KIND_FULL
            kinds[slots[~is_first]] = KIND_REF
            refs[slots[~is_first]] = targets[~is_first]
        else:
            kinds[send_mask] = KIND_FULL
        checksummed = int(np.count_nonzero(dirty_mask))

    return FirstRoundPlan(
        method=method,
        kinds=kinds,
        refs=refs,
        content_ids=hashes.copy(),
        checksummed_pages=checksummed,
    )


def dirty_round_sends(hashes: np.ndarray, dirty_slots: np.ndarray) -> RoundSends:
    """Plan one post-first-round dirty round: plain pages, slot order.

    VeCycle adapts only the first round (§3.1); later rounds resend
    dirtied pages verbatim.  Content ids are frozen here so a retried
    round resends identical bytes even if planning and sending are
    separated by a reconnect.
    """
    slots = np.unique(np.asarray(dirty_slots, dtype=np.int64))
    return RoundSends(
        kinds=np.full(slots.shape[0], KIND_PLAIN, dtype=np.int8),
        slots=slots,
        content_ids=np.asarray(hashes, dtype=np.uint64)[slots],
        refs=np.full(slots.shape[0], -1, dtype=np.int64),
    )
