"""Placement policies: choose a migration destination from the view.

Two policies, two papers:

* :class:`BestCheckpoint` — VeCycle's own logic (§2.2): the best
  destination is the host whose stored checkpoint shares the most
  content with the VM's current memory, estimated from the inventory's
  bottom-k sketches.  Checkpoints of *other* VMs on a host count at a
  discount (``cross_vm_weight``), since cross-VM duplication is real
  but much weaker than a VM's own history (§4.5).
* :class:`DestinationSwap` — Avin, Dunay & Schmid's simple pairwise
  swap strategy: remember where each VM came from and send it back,
  which converges to exactly the ping-pong pattern checkpoint
  recycling thrives on.

A policy says only *where* a VM goes.  *When* it moves (§2.2:
consolidate idle VMs, send active ones home) is the caller's schedule.

Every policy is deterministic given its inputs: scores break ties by
(-score, fewer active sessions, lexicographic host name), so tests and
replays are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.orchestrator.inventory import ClusterView, sketch_similarity


class PlacementError(RuntimeError):
    """No destination can be chosen (empty cluster, all hosts excluded)."""


@dataclass(frozen=True)
class PlacementRequest:
    """What the controller knows about the VM it wants to move.

    Attributes:
        vm_id: The VM's stable identity.
        source_host: Where it currently runs (excluded as destination).
        sketch: Bottom-k sketch of the VM's *current* page digests —
            the thing checkpoint sketches are compared against.
    """

    vm_id: str
    source_host: str
    sketch: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PlacementDecision:
    """A scored destination choice."""

    vm_id: str
    destination: str
    policy: str
    score: float
    reason: str
    scores: Dict[str, float] = field(default_factory=dict)


class PlacementPolicy:
    """Base class: rank live hosts for one migration request."""

    name = "policy"

    def decide(self, request: PlacementRequest, view: ClusterView) -> PlacementDecision:
        """Choose a destination for ``request`` given the cluster view."""
        raise NotImplementedError

    def record_migration(
        self, vm_id: str, source: str, destination: str
    ) -> None:
        """Called by the controller after a migration completes."""

    def _candidates(
        self, request: PlacementRequest, view: ClusterView
    ) -> Sequence[str]:
        hosts = [h for h in view.hosts() if h != request.source_host]
        if not hosts:
            raise PlacementError(
                f"no destination for {request.vm_id!r}: cluster view has "
                f"{len(view.hosts())} live host(s), source excluded"
            )
        return hosts

    def _pick(
        self,
        request: PlacementRequest,
        view: ClusterView,
        scores: Dict[str, float],
        reason: str,
    ) -> PlacementDecision:
        """Deterministic argmax: score, then idleness, then name."""

        def rank(host: str):
            inventory = view.get(host)
            busy = inventory.active_sessions if inventory is not None else 0
            return (-scores[host], busy, host)

        best = min(scores, key=rank)
        return PlacementDecision(
            vm_id=request.vm_id,
            destination=best,
            policy=self.name,
            score=scores[best],
            reason=reason,
            scores=dict(scores),
        )


class BestCheckpoint(PlacementPolicy):
    """Maximise expected page reuse, estimated from inventory sketches.

    Args:
        cross_vm_weight: Discount applied to the best *other-VM*
            checkpoint similarity on a host.  0 ignores cross-VM
            redundancy entirely; 1 trusts it as much as the VM's own
            history.
    """

    name = "best-checkpoint"

    def __init__(self, cross_vm_weight: float = 0.25) -> None:
        if not 0.0 <= cross_vm_weight <= 1.0:
            raise ValueError(
                f"cross_vm_weight must be in [0, 1], got {cross_vm_weight}"
            )
        self.cross_vm_weight = cross_vm_weight

    def decide(self, request: PlacementRequest, view: ClusterView) -> PlacementDecision:
        """Score every candidate by expected checkpoint reuse."""
        scores: Dict[str, float] = {}
        for host in self._candidates(request, view):
            inventory = view.get(host)
            own = 0.0
            cross = 0.0
            for vm_id, sketch in inventory.checkpoints.items():
                similarity = sketch_similarity(request.sketch, sketch)
                if vm_id == request.vm_id:
                    own = similarity
                else:
                    cross = max(cross, similarity)
            scores[host] = min(1.0, own + self.cross_vm_weight * cross)
        # No checkpoint anywhere resembling this VM leaves every score 0:
        # the tie-break then picks the least-loaded host.
        reason = (
            "max expected page reuse"
            if max(scores.values()) > 0.0
            else "no matching checkpoint; least loaded"
        )
        return self._pick(request, view, scores, reason=reason)


class DestinationSwap(PlacementPolicy):
    """Send each VM back where it last came from (Avin et al. swaps).

    The policy keeps one fact per VM — the host it most recently
    departed — and proposes it as the next destination, degenerating to
    the least-loaded fallback for VMs it has never seen move.  On a
    two-host cluster this converges to the pure ping-pong pattern after
    the first move.
    """

    name = "destination-swap"

    def __init__(self) -> None:
        self._last_departed: Dict[str, str] = {}

    def decide(self, request: PlacementRequest, view: ClusterView) -> PlacementDecision:
        """Send the VM back to the host it last departed from."""
        candidates = self._candidates(request, view)
        previous = self._last_departed.get(request.vm_id)
        scores = {
            host: 1.0 if host == previous else 0.0 for host in candidates
        }
        reason = (
            f"swap back to {previous}"
            if previous in scores
            else "no swap partner yet; least loaded"
        )
        return self._pick(request, view, scores, reason=reason)

    def record_migration(
        self, vm_id: str, source: str, destination: str
    ) -> None:
        """Remember ``source`` as the VM's future swap partner."""
        self._last_departed[vm_id] = source


_POLICIES = {
    BestCheckpoint.name: BestCheckpoint,
    DestinationSwap.name: DestinationSwap,
}


def get_policy(name: str) -> PlacementPolicy:
    """Instantiate a policy by registry name (CLI plumbing)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None


def available_policies() -> list:
    """All registered policy names, sorted."""
    return sorted(_POLICIES)
