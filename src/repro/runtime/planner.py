"""Per-slot first-round planning for the live runtime.

How a slot travels is decided by
:func:`repro.core.transfer.slot_kinds` — the same call
:func:`repro.core.transfer.compute_transfer_set` counts for the analytic
model, so the two cannot disagree about the decision.  What a live
sender needs on top is planner-only: checkpoint membership from the
*announced checksums*, the concrete earlier slot each dedup reference
points at, and the message sequence in send order.  Because the rule is
shared, the runtime-vs-model cross-validation checks encode, wire and
accounting, not the decision; the decision's independent witness is the
loop-per-slot oracle in ``tests/core/test_slot_kinds_oracle.py``.

One representational difference: the analytic path tests checkpoint
membership on 64-bit content ids, the runtime on the *real checksums*
of the materialized pages (that is what the destination announces over
the wire, §3.2).  :class:`~repro.mem.pagestore.PageStore` makes the
id → bytes mapping injective, so both membership tests agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.core.dedup import first_occurrence
from repro.core.transfer import (  # noqa: F401 - re-exports the KIND_* codes
    KIND_CHECKSUM,
    KIND_FULL,
    KIND_NAMES,
    KIND_PLAIN,
    KIND_REF,
    KIND_SKIP,
    Method,
    TransferSet,
    slot_kinds,
    slots_to_mask,
)


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


@dataclass(frozen=True)
class FirstRoundPlan(TransferSet):
    """Per-slot handling for one migration's first copy round.

    The :class:`~repro.core.transfer.TransferSet` counts (``full_pages``
    — with or without checksum —, ``ref_pages``, ``checksum_only_pages``,
    ``skipped_pages``, ``checksummed_pages``) plus the per-slot arrays
    the sender streams from.
    """

    kinds: np.ndarray
    refs: np.ndarray
    content_ids: np.ndarray

    def count(self, kind: int) -> int:
        """Number of slots planned as ``kind`` (one of the KIND_* codes)."""
        return int(np.count_nonzero(self.kinds == kind))

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


def digests_by_slot(
    hashes: np.ndarray,
    digest_of: Callable[[int], bytes],
    digest_many: Optional[Callable[[np.ndarray], List[bytes]]] = None,
) -> List[bytes]:
    """Per-slot checksums of ``hashes``, computed per *distinct* id.

    Hashing cost scales with unique contents, not slots, exactly like
    the prototype's per-content checksum pass.  ``digest_many`` (when
    given) digests the whole distinct-id batch in one call — e.g.
    :meth:`~repro.mem.pagestore.PageStore.digests_for` — instead of one
    ``digest_of`` call per id.
    """
    unique_ids, inverse = np.unique(hashes, return_inverse=True)
    if digest_many is not None:
        digests = digest_many(unique_ids)
    else:
        digests = [digest_of(int(cid)) for cid in unique_ids]
    return list(map(digests.__getitem__, inverse.tolist()))


def membership_mask(
    slot_digests: Sequence[bytes], announced: FrozenSet[bytes]
) -> np.ndarray:
    """Which slots hold content the destination announced."""
    return np.fromiter(
        map(announced.__contains__, slot_digests),
        dtype=bool,
        count=len(slot_digests),
    )


def plan_first_round(
    method: Method,
    hashes: np.ndarray,
    announced: Optional[FrozenSet[bytes]] = None,
    digest_of: Optional[Callable[[int], bytes]] = None,
    dirty_slots: Optional[np.ndarray] = None,
    digest_many: Optional[Callable[[np.ndarray], List[bytes]]] = None,
    slot_digests: Optional[Sequence[bytes]] = None,
) -> FirstRoundPlan:
    """Plan the first copy round of a live migration.

    Args:
        method: Transfer-set semantics (same enum the analytic path uses).
        hashes: Per-slot content ids of the VM at migration time.
        announced: The destination's announced checksum set; required
            for hash-based methods (pass an empty set on a first visit —
            every page then goes in full, the degraded mode §3.2
            implies).
        digest_of: content id → real page checksum; with ``announced``,
            required unless ``slot_digests`` is given.
        dirty_slots: Slots written since the destination's checkpoint;
            required for dirty-tracking methods.
        digest_many: Optional batched variant of ``digest_of`` taking an
            array of distinct content ids.
        slot_digests: The per-slot checksums of ``hashes``, when the
            caller has them already (the live source's digest pass);
            ``digest_of`` and ``digest_many`` are then not called.
    """
    hashes = np.asarray(hashes, dtype=np.uint64)
    member = dirty_mask = None
    if method.uses_hashes:
        if announced is None or (slot_digests is None and digest_of is None):
            raise ValueError(
                f"method {method.value} needs the announced checksum set "
                "and a digest function"
            )
        if slot_digests is None:
            slot_digests = digests_by_slot(hashes, digest_of, digest_many)
        member = membership_mask(slot_digests, announced)
    if method.uses_dirty_tracking:
        if dirty_slots is None:
            raise ValueError(f"method {method.value} needs dirty_slots")
        dirty_mask = slots_to_mask(dirty_slots, hashes.shape[0])
    kinds, checksummed = slot_kinds(method, hashes, member, dirty_mask)

    refs = np.full(hashes.shape[0], -1, dtype=np.int64)
    if method.uses_dedup:
        # A reference names the slot that carried its content: the first
        # occurrence among the slots whose pages are sent at all.
        sent = np.flatnonzero((kinds != KIND_SKIP) & (kinds != KIND_CHECKSUM))
        is_first, targets = first_occurrence(hashes[sent], return_targets=True)
        refs[sent[~is_first]] = sent[targets[~is_first]]

    counts = TransferSet.from_kinds(method, kinds, checksummed)
    return FirstRoundPlan(
        **vars(counts), kinds=kinds, refs=refs, content_ids=hashes.copy()
    )


def dirty_round_sends(hashes: np.ndarray, dirty_slots: np.ndarray) -> RoundSends:
    """Plan one post-first-round dirty round: plain pages, slot order.

    VeCycle adapts only the first round (§3.1); later rounds resend
    dirtied pages verbatim.  Content ids are frozen here so a retried
    round resends identical bytes even if planning and sending are
    separated by a reconnect.  A slot outside the image raises
    :class:`ValueError` here rather than reaching the encoder.
    """
    hashes = np.asarray(hashes, dtype=np.uint64)
    slots = np.flatnonzero(slots_to_mask(dirty_slots, hashes.shape[0]))
    return RoundSends(
        kinds=np.full(slots.shape[0], KIND_PLAIN, dtype=np.int8),
        slots=slots,
        content_ids=hashes[slots],
        refs=np.full(slots.shape[0], -1, dtype=np.int64),
    )
