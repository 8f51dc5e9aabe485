"""Consolidation policies: who migrates where, and when.

Section 2.2 names the workload patterns that produce VeCycle's
ping-pong migrations: *dynamic workload consolidation* ("all
low-activity VMs are consolidated on a single server and migrated to
another machine as soon as they become active"; Verma et al. [26]) and
*follow-the-sun* computing [25].  A policy inspects the fleet's
activity each epoch and returns the migrations to perform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence


@dataclass(frozen=True)
class VmStatus:
    """One VM's state as seen by a policy at an epoch boundary."""

    vm_id: str
    host: str
    home_host: str
    active: bool


@dataclass(frozen=True)
class Move:
    """A migration order issued by a policy."""

    vm_id: str
    destination: str


class ConsolidationPolicy(Protocol):
    """Decides migrations from fleet status; stateless or stateful."""

    def decide(self, fleet: Sequence[VmStatus], epoch: int) -> List[Move]:
        """Migrations to perform at this epoch boundary."""
        ...


@dataclass
class ThresholdConsolidation:
    """Verma-style dynamic consolidation (§2.2).

    Idle VMs are packed onto the consolidation server; a VM that turns
    active is immediately sent back to its home host.  With bursty
    guests this produces exactly the two-host ping-pong pattern the IBM
    study observed — and therefore maximal checkpoint reuse.

    Attributes:
        consolidation_host: Where idle VMs go.
        min_idle_epochs: Consecutive idle epochs before a VM is deemed
            quiet enough to consolidate (avoids thrashing).
    """

    consolidation_host: str = "consolidation-server"
    min_idle_epochs: int = 2
    _idle_streak: Dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.min_idle_epochs < 1:
            raise ValueError(
                f"min_idle_epochs must be >= 1, got {self.min_idle_epochs}"
            )

    def decide(self, fleet: Sequence[VmStatus], epoch: int) -> List[Move]:
        """Consolidate quiet VMs; send re-activated ones home."""
        moves: List[Move] = []
        for vm in fleet:
            if vm.active:
                self._idle_streak[vm.vm_id] = 0
                if vm.host == self.consolidation_host:
                    moves.append(Move(vm_id=vm.vm_id, destination=vm.home_host))
                continue
            streak = self._idle_streak.get(vm.vm_id, 0) + 1
            self._idle_streak[vm.vm_id] = streak
            if vm.host != self.consolidation_host and streak >= self.min_idle_epochs:
                moves.append(
                    Move(vm_id=vm.vm_id, destination=self.consolidation_host)
                )
        return moves


@dataclass
class FollowTheSun:
    """Follow-the-sun computing (§2.2, [25]).

    The whole fleet moves between two sites on a fixed period — e.g.
    every 12 hours the active site flips — regardless of per-VM
    activity.  Every VM revisits the same two hosts forever, the ideal
    regime for checkpoint recycling.

    Attributes:
        sites: The two alternating hosts.
        period_epochs: Epochs between site flips.
    """

    sites: tuple[str, str] = ("site-east", "site-west")
    period_epochs: int = 24

    def __post_init__(self) -> None:
        if self.period_epochs < 1:
            raise ValueError(
                f"period_epochs must be >= 1, got {self.period_epochs}"
            )
        if len(self.sites) != 2 or self.sites[0] == self.sites[1]:
            raise ValueError("sites must be two distinct host names")

    def active_site(self, epoch: int) -> str:
        """The site hosting the fleet during ``epoch``."""
        return self.sites[(epoch // self.period_epochs) % 2]

    def decide(self, fleet: Sequence[VmStatus], epoch: int) -> List[Move]:
        """Move everyone not already at the currently active site."""
        target = self.active_site(epoch)
        return [
            Move(vm_id=vm.vm_id, destination=target)
            for vm in fleet
            if vm.host != target
        ]
