"""Checkpoint retention: which stored checkpoints still earn their disk.

The paper argues local storage is "cheap and abundant", but a
consolidation server accumulating one checkpoint per desktop per day
still wants a retention policy.  Two are provided:

* :class:`TtlRetention` — drop checkpoints older than a fixed age; the
  blunt instrument.
* :class:`ValueRetention` — drop checkpoints whose *predicted* residual
  similarity (via the VM's fitted decay curve,
  :class:`~repro.core.prediction.SimilarityPredictor`) has fallen below
  a floor: a crawler's checkpoint is worthless after a few hours while
  a desktop's overnight checkpoint stays valuable for days, so the
  policy keeps what will actually be recycled.

Dropping a checkpoint must also *reclaim* what it exclusively owned:
:func:`reclaim_hosted` applies a policy to a live
:class:`~repro.runtime.daemon.CheckpointDaemon` (or anything with its
``checkpoints`` / ``drop_checkpoint`` shape) and routes every drop
through the daemon's refcounted content store and durable repository,
so the last checkpoint referencing a page actually frees its bytes —
the resident copy at once, the on-disk record at the next compaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol

from repro.core.checkpoint import Checkpoint, CheckpointStore
from repro.core.prediction import SimilarityPredictor
from repro.obs import names


class RetentionPolicy(Protocol):
    """Decides whether a stored checkpoint is still worth keeping."""

    def keep(self, checkpoint: Checkpoint, now_s: float) -> bool:
        """True to retain ``checkpoint`` at time ``now_s``."""
        ...


@dataclass(frozen=True)
class TtlRetention:
    """Keep checkpoints younger than ``ttl_s`` seconds."""

    ttl_s: float = 7 * 86400.0

    def __post_init__(self) -> None:
        if self.ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {self.ttl_s}")

    def keep(self, checkpoint: Checkpoint, now_s: float) -> bool:
        """Retain iff the checkpoint is at most ``ttl_s`` old."""
        return (now_s - checkpoint.timestamp) <= self.ttl_s


@dataclass
class ValueRetention:
    """Keep checkpoints whose predicted similarity clears a floor.

    Attributes:
        min_similarity: Predicted-reuse threshold below which the
            checkpoint is dropped.
        predictors: Per-VM decay estimators; VMs without one use
            ``default_predictor``.
    """

    min_similarity: float = 0.15
    predictors: Dict[str, SimilarityPredictor] = field(default_factory=dict)
    default_predictor: SimilarityPredictor = field(
        default_factory=SimilarityPredictor
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_similarity <= 1.0:
            raise ValueError(
                f"min_similarity must be in [0, 1], got {self.min_similarity}"
            )

    def predictor_for(self, vm_id: str) -> SimilarityPredictor:
        """The decay estimator for ``vm_id`` (or the shared default)."""
        return self.predictors.get(vm_id, self.default_predictor)

    def keep(self, checkpoint: Checkpoint, now_s: float) -> bool:
        """Retain iff the predicted residual similarity clears the floor."""
        age = max(0.0, now_s - checkpoint.timestamp)
        predicted = self.predictor_for(checkpoint.vm_id).predict(age)
        return predicted >= self.min_similarity


def collect_garbage(
    store: CheckpointStore, policy: RetentionPolicy, now_s: float
) -> List[str]:
    """Evict every checkpoint the policy rejects; return evicted vm_ids.

    Eviction goes through :meth:`CheckpointStore.evict`, so a store
    constructed with an ``on_evict`` callback releases whatever per-page
    state it had pinned elsewhere.
    """
    evicted: List[str] = []
    for vm_id in store.vm_ids():
        checkpoint = store.get(vm_id)
        if checkpoint is not None and not policy.keep(checkpoint, now_s):
            store.evict(vm_id)
            evicted.append(vm_id)
    return evicted


class HostedCheckpointOwner(Protocol):
    """What :func:`reclaim_hosted` needs from a checkpoint daemon."""

    checkpoints: Dict[str, object]

    def drop_checkpoint(self, vm_id: str) -> int:
        """Drop a hosted checkpoint, returning bytes reclaimed."""
        ...


@dataclass(frozen=True)
class ReclaimReport:
    """Outcome of one :func:`reclaim_hosted` pass."""

    evicted: List[str]
    bytes_reclaimed: int

    def __str__(self) -> str:
        return (
            f"reclaimed {self.bytes_reclaimed} bytes from "
            f"{len(self.evicted)} checkpoint(s)"
        )


def reclaim_hosted(
    owner: HostedCheckpointOwner, policy: RetentionPolicy, now_s: float
) -> ReclaimReport:
    """Apply ``policy`` to a daemon's hosted checkpoints and free pages.

    Where :func:`collect_garbage` only forgets metadata, this path
    reclaims storage: each rejected checkpoint is dropped through
    ``owner.drop_checkpoint``, which releases its per-slot content-store
    references and releases repository records whose *last* referencing
    checkpoint just went away.  The hosted checkpoints duck-type the
    policy's ``Checkpoint`` (``vm_id`` + ``timestamp`` is all the
    policies read).  Reclaimed bytes land on the ``repo.bytes_reclaimed``
    metric (repository-backed owners count them there themselves).
    """
    evicted: List[str] = []
    reclaimed = 0
    for vm_id in sorted(owner.checkpoints):
        hosted = owner.checkpoints[vm_id]
        if not policy.keep(hosted, now_s):
            reclaimed += owner.drop_checkpoint(vm_id)
            evicted.append(vm_id)
    if reclaimed and getattr(owner, "repository", None) is None:
        names.REPO_BYTES_RECLAIMED.add(reclaimed)
    return ReclaimReport(evicted=evicted, bytes_reclaimed=reclaimed)
