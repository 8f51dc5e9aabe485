"""Cluster checkpoint inventory: what the control plane knows per host.

A daemon cannot ship every checkpoint digest to the controller on every
heartbeat — a 4 GiB image is a million digests.  Instead each hosted
checkpoint travels as a *digest summary*: page counts, byte sizes, and
a **bottom-k sketch** (the k lexicographically smallest distinct
digests).  Bottom-k sketches are a classic MinHash variant: for two
digest sets A and B, the fraction of the k smallest elements of A ∪ B
that appear in both sketches is an unbiased estimate of the Jaccard
similarity |A ∩ B| / |A ∪ B| — which is exactly the "how much of this
VM's memory does that host already hold" question VeCycle-aware
placement needs to answer (§2.2), at k·digest_size bytes per
checkpoint instead of the full index.

Everything in this module is plain data + pure functions so both sides
of the wire (the daemon building an INVENTORY frame, the controller
consuming it) share one implementation without import cycles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

DEFAULT_SKETCH_K = 64
"""Sketch size: 64 digests bound the similarity estimate's standard
error near 1/√64 ≈ 12% — coarse, but placement only needs to rank
hosts, and ties break deterministically."""


def digest_sketch(
    digests: Iterable[bytes], k: int = DEFAULT_SKETCH_K
) -> List[str]:
    """Bottom-k sketch of a digest set, as sorted hex strings.

    Hex encoding preserves byte order, so "k smallest hex strings" and
    "k smallest digests" agree: the bottom-k is taken on the raw bytes
    and only the k survivors are encoded.  Hex also makes the sketch
    JSON-safe for the INVENTORY frame.
    """
    if k <= 0:
        raise ValueError(f"sketch size must be positive, got {k}")
    return [d.hex() for d in heapq.nsmallest(k, set(digests))]


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
class CheckpointSummary:
    """One hosted checkpoint, as summarised in an INVENTORY frame."""

    vm_id: str
    pages: int
    unique_pages: int
    stored_bytes: int
    timestamp: float
    last_used: float
    resident: bool
    sketch: Tuple[str, ...]

    @classmethod
    def from_json(cls, body: dict) -> "CheckpointSummary":
        return cls(
            vm_id=str(body["vm_id"]),
            pages=int(body["pages"]),
            unique_pages=int(body["unique_pages"]),
            stored_bytes=int(body["stored_bytes"]),
            timestamp=float(body.get("timestamp", 0.0)),
            last_used=float(body.get("last_used", 0.0)),
            resident=bool(body.get("resident", True)),
            sketch=tuple(body.get("sketch", ())),
        )

    def to_json(self) -> dict:
        """JSON-compatible dict for the INVENTORY frame body."""
        return {
            "vm_id": self.vm_id,
            "pages": self.pages,
            "unique_pages": self.unique_pages,
            "stored_bytes": self.stored_bytes,
            "timestamp": self.timestamp,
            "last_used": self.last_used,
            "resident": self.resident,
            "sketch": list(self.sketch),
        }


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
