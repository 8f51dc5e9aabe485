"""Cluster checkpoint inventory: what the control plane knows per host.

Each daemon answers a heartbeat with one :class:`HostInventory`: the
two facts every placement policy reads — its ``active_sessions`` and,
by vm_id, a bottom-k sketch of each hosted checkpoint's distinct
digests.  The sketch math lives in :mod:`repro.runtime.hosted`, which
the daemon building the INVENTORY frame imports too; this module adds
the controller's side: the similarity estimate and the merged cluster
view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.frames import FrameError
from repro.runtime.hosted import SKETCH_K, digest_sketch

__all__ = [
    "ClusterView",
    "HostInventory",
    "SKETCH_K",
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


def _is_sketch(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(d, str) for d in value)


@dataclass(frozen=True)
class HostInventory:
    """One daemon's reply to a heartbeat: its load and, by vm_id, the
    sketch of every checkpoint it hosts."""

    active_sessions: int
    checkpoints: Dict[str, Tuple[str, ...]]

    @classmethod
    def from_report(cls, body: object) -> "HostInventory":
        """Parse an INVENTORY frame body (the daemon's report).

        Raises :class:`~repro.runtime.frames.FrameError` on any other
        shape, so a garbled report is a failed probe, not a crash.
        """
        if not isinstance(body, dict):
            raise FrameError(f"inventory body is not an object: {body!r:.80}")
        active = body.get("active_sessions")
        checkpoints = body.get("checkpoints")
        if type(active) is not int:
            raise FrameError(f"inventory active_sessions is {active!r:.80}")
        if not isinstance(checkpoints, dict) or not all(
            _is_sketch(sketch) for sketch in checkpoints.values()
        ):
            raise FrameError(f"inventory checkpoints is {checkpoints!r:.80}")
        return cls(
            active_sessions=active,
            checkpoints={vm_id: tuple(sketch) for vm_id, sketch in checkpoints.items()},
        )


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
