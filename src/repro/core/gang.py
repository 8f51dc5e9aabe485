"""Gang migration: moving groups of VMs with cross-VM redundancy.

Related work ([4] VMFlock, [19] Shrinker, [29] CloudNet, [30] Zhang et
al.) eliminates duplicates across *all* VMs of a migrating cluster:
identical pages — shared base images, common libraries — cross the wire
once for the whole gang.  The paper's §5 observes those techniques
compose with VeCycle, which this module makes concrete:

* sender-side dedup spans the gang, so a page sent for VM 1 is a cheap
  reference for VM 2;
* each VM still consults its own checkpoint at the destination first —
  content found there never enters the stream at all;
* the destination's announce can merge the checksum sets of every
  local checkpoint, letting one VM's checkpoint serve another VM's
  identical pages (cross-VM recycling), at the price of a larger
  announce.

The evacuation use case (§2.2: vacating servers for maintenance) is
exactly a gang migration.  The per-page rule is the one decision
kernel, :func:`~repro.core.transfer.slot_kinds` under
``hashes+dedup``, run over the gang's concatenated send stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.checkpoint import Checkpoint, ChecksumIndex
from repro.core.fingerprint import Fingerprint
from repro.core.transfer import Method, TransferSet, kernel_inputs, slot_kinds


@dataclass(frozen=True)
class GangMember:
    """One VM in the gang: its state and its optional checkpoint."""

    vm_id: str
    fingerprint: Fingerprint
    checkpoint: Optional[Checkpoint] = None


@dataclass(frozen=True)
class GangTransferSet:
    """Per-VM and aggregate page accounting for one gang migration."""

    per_vm_full: Dict[str, int]
    per_vm_ref: Dict[str, int]
    per_vm_reused: Dict[str, int]
    total_pages: int

    @property
    def full_pages(self) -> int:
        return sum(self.per_vm_full.values())

    @property
    def ref_pages(self) -> int:
        return sum(self.per_vm_ref.values())

    @property
    def reused_pages(self) -> int:
        return sum(self.per_vm_reused.values())

    @property
    def page_fraction(self) -> float:
        """Full pages as a fraction of a full gang copy."""
        if self.total_pages == 0:
            return 0.0
        return self.full_pages / self.total_pages


def gang_transfer_set(
    members: Sequence[GangMember],
    cross_vm_dedup: bool = True,
    cross_vm_checkpoints: bool = False,
) -> GangTransferSet:
    """Compute the transfer set for migrating ``members`` together.

    Args:
        members: The gang, in send order (earlier members prime the
            dedup cache for later ones).
        cross_vm_dedup: Share the dedup cache across the gang (VMFlock
            semantics).  False degrades to per-VM dedup.
        cross_vm_checkpoints: Let every member reuse content from *any*
            member's checkpoint at the destination, not just its own —
            cross-VM recycling via a merged announce.

    Per page, in priority order: checkpoint reuse (free but for a
    checksum message) → dedup reference (identical content already in
    this migration's stream) → full transfer.
    """
    if not members:
        raise ValueError("gang must have at least one member")
    ids = [m.vm_id for m in members]
    if len(set(ids)) != len(ids):
        raise ValueError("gang members must have unique vm_ids")

    merged: Optional[ChecksumIndex] = None
    if cross_vm_checkpoints:
        pools = [
            m.checkpoint.fingerprint.hashes for m in members if m.checkpoint is not None
        ]
        if pools:
            merged = ChecksumIndex(Fingerprint(hashes=np.concatenate(pools)))

    method = Method.HASHES_DEDUP
    streams = [m.fingerprint.hashes for m in members]
    in_checkpoint = []
    for member, hashes in zip(members, streams):
        index = merged
        if index is None and member.checkpoint is not None:
            index = member.checkpoint.index
        in_checkpoint.append(kernel_inputs((method,), hashes, checkpoint_index=index)[0])
    if cross_vm_dedup:
        # One dedup cache for the whole gang: the kernel runs over the
        # concatenated send stream, cut back into per-VM pieces.
        kinds, _ = slot_kinds(
            method, np.concatenate(streams), np.concatenate(in_checkpoint)
        )
        per_vm = np.split(kinds, np.cumsum([len(h) for h in streams])[:-1])
    else:
        per_vm = [slot_kinds(method, *pair)[0] for pair in zip(streams, in_checkpoint)]
    sets = {
        m.vm_id: TransferSet.from_kinds(method, kinds, 0)
        for m, kinds in zip(members, per_vm)
    }
    return GangTransferSet(
        per_vm_full={vm_id: ts.full_pages for vm_id, ts in sets.items()},
        per_vm_ref={vm_id: ts.ref_pages for vm_id, ts in sets.items()},
        per_vm_reused={vm_id: ts.checksum_only_pages for vm_id, ts in sets.items()},
        total_pages=sum(len(h) for h in streams),
    )


def shared_base_image_fleet(
    num_vms: int,
    pages_per_vm: int,
    shared_fraction: float,
    rng: np.random.Generator,
) -> List[Fingerprint]:
    """Synthesize a fleet whose members share a common base image.

    The classic gang-migration workload: every VM carries the same OS /
    library pages (``shared_fraction`` of its memory) plus private
    data.  Returns one fingerprint per VM.
    """
    if num_vms <= 0 or pages_per_vm <= 0:
        raise ValueError("num_vms and pages_per_vm must be > 0")
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError(f"shared_fraction must be in [0, 1], got {shared_fraction}")
    shared_count = int(pages_per_vm * shared_fraction)
    # Shared contents: ids in a dedicated range.
    shared = rng.integers(1, 2**32, size=shared_count).astype(np.uint64)
    fleet = []
    next_private = np.uint64(2**48)
    for index in range(num_vms):
        private_count = pages_per_vm - shared_count
        private = np.arange(
            int(next_private), int(next_private) + private_count, dtype=np.uint64
        )
        next_private += np.uint64(private_count)
        hashes = np.concatenate([shared, private])
        rng.shuffle(hashes)
        fleet.append(Fingerprint(hashes=hashes))
    return fleet
