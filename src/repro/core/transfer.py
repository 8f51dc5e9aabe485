"""The decision kernel: how every page slot travels, for every method.

Figure 3 of the paper: each technique identifies a distinct set of pages
to transfer, and techniques can be combined.  §4.3 builds the eight
methods from three composable filters over the slots — a *dirty*
pre-filter (Miyakodori), checkpoint membership (*hashes*, VeCycle) and
sender-side *dedup* of the residual — and :func:`slot_kinds` is that
composition, written once.  Per slot it answers:

* ``full``/``plain`` — the page's bytes cross the wire (with its
                  checksum under a hash method, without otherwise),
* ``ref``       — a small dedup reference replaces the page (sender-side
                  dedup hit: identical content already sent this
                  migration),
* ``checksum``  — only the page's checksum crosses the wire (VeCycle:
                  content already exists in the destination checkpoint),
* ``skip``      — nothing is sent (dirty tracking: slot known-clean).

Everything else is a caller or a reduction: :func:`kernel_inputs`
builds the kernel's inputs, first visits included,
:func:`compute_transfer_set` counts the kinds,
:func:`repro.analysis.methods.pair_fractions` takes
the full-page share, the live runtime's planner (``plan_first_round``)
streams them (and resolves what each ``ref`` points at).  The
independent statement of the rule is the loop-per-slot oracle in
``tests/core/test_slot_kinds_oracle.py``.

Adding dirty tracking to ``hashes`` does not reduce the pages sent —
clean slots already hash-match the checkpoint — it only reduces how
many checksums must be computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.checkpoint import ChecksumIndex
from repro.core.dedup import first_occurrence
from repro.core.fingerprint import Fingerprint
from repro.obs.trace import NOOP_SPAN, span as _span


class Method(enum.Enum):
    """The traffic-reduction methods compared in the paper."""

    FULL = "full"
    DEDUP = "dedup"
    DIRTY = "dirty"
    DIRTY_DEDUP = "dirty+dedup"
    HASHES = "hashes"
    HASHES_DEDUP = "hashes+dedup"
    DIRTY_HASHES = "dirty+hashes"
    DIRTY_HASHES_DEDUP = "dirty+hashes+dedup"

    def _has(self, part: str) -> bool:
        # The value *is* the composition: "dirty+hashes+dedup" names the
        # three filters it stacks.
        return part in self.value.split("+")

    @property
    def uses_dirty_tracking(self) -> bool:
        return self._has("dirty")

    @property
    def uses_hashes(self) -> bool:
        return self._has("hashes")

    @property
    def uses_dedup(self) -> bool:
        return self._has("dedup")

    @property
    def uses_checkpoint(self) -> bool:
        """Whether the method needs a checkpoint at the destination."""
        return self.uses_dirty_tracking or self.uses_hashes


PAPER_METHODS = (
    Method.DEDUP,
    Method.HASHES,
    Method.DIRTY_DEDUP,
    Method.DIRTY,
    Method.HASHES_DEDUP,
)
"""The five methods Figure 5 compares, in the paper's bar order."""

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
"""Per-slot kind code → :meth:`WireFormat.message_bytes` kind name
(``KIND_SKIP`` sends no message)."""


@dataclass(frozen=True)
class TransferSet:
    """How one migration's first copy round handles each page slot.

    The four counters partition the slots::

        full_pages + ref_pages + checksum_only_pages + skipped_pages
            == num_slots

    ``checksummed_pages`` counts how many pages the *source* had to hash
    — the computational cost dirty tracking saves when combined with
    content-based redundancy elimination (§4.3 last paragraph).
    """

    method: Method
    num_slots: int
    full_pages: int
    ref_pages: int
    checksum_only_pages: int
    skipped_pages: int
    checksummed_pages: int

    def __post_init__(self) -> None:
        parts = (
            self.full_pages
            + self.ref_pages
            + self.checksum_only_pages
            + self.skipped_pages
        )
        if parts != self.num_slots:
            raise ValueError(
                f"slot partition mismatch for {self.method.value}: "
                f"{parts} != {self.num_slots}"
            )

    @classmethod
    def from_kinds(
        cls, method: Method, kinds: np.ndarray, checksummed_pages: int
    ) -> "TransferSet":
        """Count :func:`slot_kinds`' per-slot answer."""
        count = [int(np.count_nonzero(kinds == kind)) for kind in range(KIND_REF + 1)]
        return cls(
            method,
            len(kinds),
            count[KIND_PLAIN] + count[KIND_FULL],
            count[KIND_REF],
            count[KIND_CHECKSUM],
            count[KIND_SKIP],
            checksummed_pages,
        )

    @property
    def message_counts(self) -> Dict[int, int]:
        """Messages of the round by ``KIND_*`` code (skipped slots send none)."""
        return {
            _bytes_kind(self.method): self.full_pages,
            KIND_REF: self.ref_pages,
            KIND_CHECKSUM: self.checksum_only_pages,
        }

    @property
    def page_fraction(self) -> float:
        """Full pages sent as a fraction of a baseline full migration.

        This is the "Fraction of Baseline Traffic" of Figure 5's bar
        chart — the dominant traffic term, since pages (4 KiB) dwarf
        references and checksums (8–16 B).
        """
        if self.num_slots == 0:
            return 0.0
        return self.full_pages / self.num_slots


def _bytes_kind(method: Method) -> int:
    # §3.2: a hash method ships the checksum with the page so the
    # receiver need not recompute it; the others ship the bare page.
    return KIND_FULL if method.uses_hashes else KIND_PLAIN


def slots_to_mask(slots: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask over ``n`` slots, true at ``slots``.

    Duplicated and unsorted slots are fine.  A slot outside ``[0, n)``
    raises :class:`ValueError` — plain numpy indexing would wrap a
    negative one round to the end of the image.
    """
    slots = np.asarray(slots, dtype=np.int64)
    bad = slots[(slots < 0) | (slots >= n)]
    if bad.size:
        raise ValueError(f"slot {int(bad[0])} is not one of the image's {n} slots")
    mask = np.zeros(n, dtype=bool)
    mask[slots] = True
    return mask


def slot_kinds(
    method: Method,
    hashes: np.ndarray,
    member: Optional[np.ndarray] = None,
    dirty_mask: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, int]:
    """How each slot travels under ``method``: the three filters of §4.3.

    Args:
        hashes: Per-slot content ids of the VM at migration time.
        member: Per slot, whether its content is in the destination's
            checkpoint; required when the method uses hashes.
        dirty_mask: Per slot, whether it was written since the
            checkpoint; required when the method uses dirty tracking.

    Returns:
        ``(kinds, checksummed_pages)``: an ``int8`` array of ``KIND_*``
        codes, and how many pages the source had to hash — every
        candidate when the method hashes or dedups (dedup's weak hash
        touches each outgoing page too), none otherwise.
    """
    n = hashes.shape[0]
    candidate = dirty_mask if method.uses_dirty_tracking else np.ones(n, dtype=bool)
    reuse = candidate & member if method.uses_hashes else np.zeros(n, dtype=bool)
    send = candidate & ~reuse
    # send and reuse are disjoint and KIND_SKIP is 0, so the codes add.
    # (A boolean-mask store per kind costs ~40x this on a 64 MiB image.)
    kinds = _bytes_kind(method) * send.astype(np.int8)
    kinds += KIND_CHECKSUM * reuse.astype(np.int8)
    if method.uses_dedup:
        # Slot order is send order: the first slot holding a content
        # carries its bytes, every later one refers back to it.
        sent = np.flatnonzero(send)
        kinds[sent[~first_occurrence(hashes[sent])]] = KIND_REF
    hashed = method.uses_hashes or method.uses_dedup
    return kinds, int(np.count_nonzero(candidate)) if hashed else 0


def kernel_inputs(
    methods: Sequence[Method],
    hashes: np.ndarray,
    checkpoint_hashes: Optional[np.ndarray] = None,
    checkpoint_index: Optional[ChecksumIndex] = None,
    dirty_slots: Optional[np.ndarray] = None,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """:func:`slot_kinds`' ``member`` and ``dirty_mask``, each built once
    and only if one of ``methods`` uses it.

    With no checkpoint (neither its hashes nor its index) — a *first
    visit* — the one first-visit rule holds: nothing is a member and
    every slot is dirty.  Otherwise membership comes from the index
    (built when omitted), the dirty set from ``dirty_slots`` or else the
    content-change proxy of §4.3.
    """
    n = hashes.shape[0]
    if checkpoint_hashes is None and checkpoint_index is None:
        return np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    member = dirty_mask = None
    if any(method.uses_hashes for method in methods):
        if checkpoint_index is None:
            checkpoint_index = ChecksumIndex(Fingerprint(checkpoint_hashes))
        member = checkpoint_index.contains_many(hashes)
    if any(method.uses_dirty_tracking for method in methods):
        if dirty_slots is None:
            dirty_mask = hashes != checkpoint_hashes
        else:
            dirty_mask = slots_to_mask(dirty_slots, n)
    return member, dirty_mask


def compute_transfer_set(
    method: Method,
    current: Fingerprint,
    checkpoint: Optional[Fingerprint] = None,
    dirty_slots: Optional[np.ndarray] = None,
    checkpoint_index: Optional[ChecksumIndex] = None,
) -> TransferSet:
    """Compute the first-round transfer set for ``method``.

    Args:
        current: The VM's memory at migration time.
        checkpoint: The old checkpoint at the destination, or None on a
            first visit (:func:`kernel_inputs`' rule).
        dirty_slots: Slots written since the checkpoint.  If omitted for
            a dirty-tracking method, falls back to the content-change
            proxy the paper uses on traces (§4.3).
        checkpoint_index: Pre-built index for ``checkpoint`` (avoids
            rebuilding it across many method evaluations).

    Inputs the method does not use are ignored, not validated.

    Returns:
        A :class:`TransferSet` partitioning all slots.
    """
    with _span("engine.transfer_set") as sp:
        n = current.num_pages
        if checkpoint is not None and method.uses_checkpoint and checkpoint.num_pages != n:
            raise ValueError(
                f"checkpoint page count {checkpoint.num_pages} != current {n}"
            )
        checkpoint_hashes = None if checkpoint is None else checkpoint.hashes
        member, dirty_mask = kernel_inputs(
            (method,), current.hashes, checkpoint_hashes, checkpoint_index, dirty_slots
        )
        result = TransferSet.from_kinds(
            method, *slot_kinds(method, current.hashes, member, dirty_mask)
        )
        if sp is not NOOP_SPAN:
            sp.set(
                method=method.value,
                slots=result.num_slots,
                full=result.full_pages,
                ref=result.ref_pages,
                checksum_only=result.checksum_only_pages,
                skipped=result.skipped_pages,
            )
        return result


def compare_methods(
    current: Fingerprint,
    checkpoint: Fingerprint,
    methods: tuple[Method, ...] = PAPER_METHODS,
    dirty_slots: Optional[np.ndarray] = None,
) -> dict[Method, TransferSet]:
    """Evaluate several methods against one (current, checkpoint) pair.

    Builds the checkpoint index once and reuses it — this is what the
    trace-analysis pipeline calls for every fingerprint pair.
    """
    index = ChecksumIndex(checkpoint)
    return {
        method: compute_transfer_set(method, current, checkpoint, dirty_slots, index)
        for method in methods
    }
