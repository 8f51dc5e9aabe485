"""Placement policies: choose a migration destination from the view.

Three policies, three papers:

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
* :class:`CycleAware` — Baruchi et al.: migrating a VM in its active
  phase is the worst time (hot pages, long pre-copy), so defer while
  the two-state activity model says "active" and expect to wait about
  ``1/deactivation_probability`` epochs for the idle phase; a bounded
  deferral count keeps a pathologically busy VM from never moving.

Every policy is deterministic given its inputs: scores break ties by
(-score, fewer active sessions, lexicographic host name), so tests and
replays are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.orchestrator.inventory import ClusterView, sketch_similarity


class PlacementError(RuntimeError):
    """No destination can be chosen (empty cluster, all hosts excluded)."""


@dataclass(frozen=True)
class PlacementRequest:
    """What the controller knows about the VM it wants to move.

    Attributes:
        vm_id: The VM's stable identity.
        source_host: Where it currently runs (excluded as destination).
        num_pages / page_size: Image geometry, for sizing decisions.
        sketch: Bottom-k sketch of the VM's *current* page digests —
            the thing checkpoint sketches are compared against.
        active: Whether the VM is in its active phase (CycleAware).
        deferrals: How many times this migration was already deferred.
    """

    vm_id: str
    source_host: str
    num_pages: int = 0
    page_size: int = 4096
    sketch: Tuple[str, ...] = ()
    active: bool = False
    deferrals: int = 0


@dataclass(frozen=True)
class PlacementDecision:
    """A scored destination choice (or a deferral)."""

    vm_id: str
    destination: str
    policy: str
    score: float
    reason: str
    deferred: bool = False
    expected_wait_epochs: float = 0.0
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
        decision = self._pick(
            request, view, scores, reason="max expected page reuse"
        )
        if decision.score == 0.0:
            # No checkpoint anywhere resembles this VM: fall back to the
            # least-loaded host (same deterministic tie-break).
            return self._pick(
                request, view, scores, reason="no matching checkpoint; least loaded"
            )
        return decision


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


class CycleAware(PlacementPolicy):
    """Defer active-phase VMs to their idle phase, then delegate.

    Args:
        inner: Policy choosing the destination once the VM may move
            (default :class:`BestCheckpoint`).
        deactivation_probability: The activity model's per-epoch chance
            an active VM turns idle; the expected wait until the idle
            phase is its reciprocal (geometric distribution).
        max_deferrals: After this many deferrals the VM migrates even
            if still active — bounded staleness.
    """

    name = "cycle-aware"

    def __init__(
        self,
        inner: Optional[PlacementPolicy] = None,
        deactivation_probability: float = 0.3,
        max_deferrals: int = 3,
    ) -> None:
        if not 0.0 < deactivation_probability <= 1.0:
            raise ValueError(
                "deactivation_probability must be in (0, 1], got "
                f"{deactivation_probability}"
            )
        self.inner = inner if inner is not None else BestCheckpoint()
        self.deactivation_probability = deactivation_probability
        self.max_deferrals = max_deferrals

    def decide(self, request: PlacementRequest, view: ClusterView) -> PlacementDecision:
        """Defer while the VM is active, else delegate to the inner policy."""
        if request.active and request.deferrals < self.max_deferrals:
            wait = 1.0 / self.deactivation_probability
            return PlacementDecision(
                vm_id=request.vm_id,
                destination="",
                policy=self.name,
                score=0.0,
                reason=(
                    f"VM active; deferring (expected idle in ~{wait:.1f} "
                    f"epochs, deferral {request.deferrals + 1}/"
                    f"{self.max_deferrals})"
                ),
                deferred=True,
                expected_wait_epochs=wait,
            )
        inner = self.inner.decide(request, view)
        reason = inner.reason
        if request.active:
            reason = f"deferral budget exhausted; {reason}"
        return PlacementDecision(
            vm_id=inner.vm_id,
            destination=inner.destination,
            policy=self.name,
            score=inner.score,
            reason=reason,
            scores=inner.scores,
        )

    def record_migration(
        self, vm_id: str, source: str, destination: str
    ) -> None:
        """Forward the completed migration to the inner policy."""
        self.inner.record_migration(vm_id, source, destination)


_POLICIES = {
    BestCheckpoint.name: BestCheckpoint,
    DestinationSwap.name: DestinationSwap,
    CycleAware.name: CycleAware,
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
