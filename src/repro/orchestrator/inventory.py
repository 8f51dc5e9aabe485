"""Cluster checkpoint inventory: what the control plane knows per host.

Each daemon answers a heartbeat with one :class:`HostInventory`: its
capacity plus a :class:`~repro.runtime.hosted.CheckpointSummary` —
page counts, byte sizes and a bottom-k sketch of the distinct digests —
for every checkpoint it hosts.  The summary record and the sketch math
live in :mod:`repro.runtime.hosted`, which the daemon building the
INVENTORY frame imports too; this module adds the controller's side:
the similarity estimate and the merged cluster view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.runtime.hosted import DEFAULT_SKETCH_K, CheckpointSummary, digest_sketch

__all__ = [
    "DEFAULT_SKETCH_K",
    "CheckpointSummary",
    "ClusterView",
    "HostInventory",
    "digest_sketch",
    "sketch_similarity",
]


def sketch_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Estimated Jaccard similarity of the sets behind two sketches.

    Uses the k smallest elements of the union of the two samples, with
    k the larger sketch size — the standard bottom-k estimator.  A
    sketch smaller than its k is simply the complete set, which the
    estimator handles for free.  Returns a value in [0, 1].
    """
    set_a, set_b = set(a), set(b)
    if not set_a or not set_b:
        return 0.0
    k = max(len(set_a), len(set_b))
    union_sample = sorted(set_a | set_b)[:k]
    hits = sum(1 for d in union_sample if d in set_a and d in set_b)
    return hits / len(union_sample)


@dataclass(frozen=True)
class HostInventory:
    """One daemon's reply to a heartbeat: capacity + checkpoint summary."""

    host: str
    port: int
    active_sessions: int
    max_concurrent_migrations: int
    checkpoints: Dict[str, CheckpointSummary]
    seq: int = 0

    @classmethod
    def from_report(cls, body: dict) -> "HostInventory":
        """Parse an INVENTORY frame body (the daemon's report)."""
        checkpoints = {
            str(entry["vm_id"]): CheckpointSummary.from_json(entry)
            for entry in body.get("checkpoints", ())
        }
        return cls(
            host=str(body["host"]),
            port=int(body.get("port") or 0),
            active_sessions=int(body.get("active_sessions", 0)),
            max_concurrent_migrations=int(
                body.get("max_concurrent_migrations", 1)
            ),
            checkpoints=checkpoints,
            seq=int(body.get("seq") or 0),
        )

    @property
    def stored_bytes(self) -> int:
        """Total checkpoint bytes the host reports."""
        return sum(s.stored_bytes for s in self.checkpoints.values())

    def checkpoint_for(self, vm_id: str) -> Optional[CheckpointSummary]:
        """This host's checkpoint of ``vm_id``, or None."""
        return self.checkpoints.get(vm_id)


@dataclass
class ClusterView:
    """The controller's merged picture of every live host's inventory."""

    inventories: Dict[str, HostInventory] = field(default_factory=dict)

    def hosts(self) -> List[str]:
        """Live host names, sorted for deterministic iteration."""
        return sorted(self.inventories)

    def get(self, host: str) -> Optional[HostInventory]:
        """The inventory reported by ``host``, or None if unknown."""
        return self.inventories.get(host)

    def checkpoints_for(self, vm_id: str) -> Dict[str, CheckpointSummary]:
        """host → this VM's checkpoint summary, where one exists."""
        found: Dict[str, CheckpointSummary] = {}
        for name, inventory in self.inventories.items():
            summary = inventory.checkpoint_for(vm_id)
            if summary is not None:
                found[name] = summary
        return found

    @property
    def total_checkpoints(self) -> int:
        return sum(len(inv.checkpoints) for inv in self.inventories.values())
