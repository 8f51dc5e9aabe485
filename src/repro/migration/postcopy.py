"""Post-copy live migration, with and without checkpoint recycling.

Related work ([13], Hines & Gopalan): instead of copying memory *before*
switching execution (pre-copy), post-copy moves the CPU state first,
resumes the VM at the destination immediately, and then fills memory in
behind it — background "pre-paging" pushes pages proactively while
guest accesses to still-remote pages fault across the network.

Post-copy's trade: constant, tiny downtime regardless of memory size,
in exchange for a *degraded phase* whose length and fault count depend
on how much memory must still cross the wire.  That makes it an ideal
host for VeCycle's idea: a destination that preloads an old checkpoint
starts with every still-valid page already resident, shrinking both the
degraded phase and the fault count.  The source learns which pages the
destination can reuse through the same §3.2 bulk checksum announce.

The model is deterministic and closed-form:

* residency starts at the pages the strategy's first-round rule reuses
  or skips (none without a checkpoint);
* the source streams the rest at the link's effective bandwidth
  (pre-paging);
* the guest touches pages at ``access_rate``; a touch to a non-resident
  page is a remote fault costing one RTT plus a page transfer, and the
  expected number of faults integrates the shrinking non-resident
  fraction over the fill phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.checkpoint import Checkpoint
from repro.core.checksum import PAGE_SIZE
from repro.core.protocol import announce_pages, first_round_traffic
from repro.core.strategies import MigrationStrategy
from repro.core.transfer import compute_transfer_set
from repro.migration.vm import SimVM
from repro.net.link import Link


@dataclass(frozen=True)
class PostcopyConfig:
    """Tunables of the post-copy model.

    Attributes:
        switchover_s: CPU-state transfer + resume cost (the whole
            downtime in post-copy).
        access_rate_pages_per_s: How fast the resumed guest touches
            distinct pages; drives the demand-fault count.  Defaults to
            proportional to the VM's write rate (reads included via the
            multiplier).
        access_read_multiplier: Reads per write, for deriving the touch
            rate from the VM's dirty rate.
        announce_known: §3.2 ping-pong shortcut — the destination's
            checkpoint checksums are already known at the source.
    """

    switchover_s: float = 0.05
    access_rate_pages_per_s: Optional[float] = None
    access_read_multiplier: float = 4.0
    announce_known: bool = False


@dataclass
class PostcopyReport:
    """Outcome of one simulated post-copy migration."""

    strategy: str
    vm_id: str
    memory_bytes: int
    link: str
    downtime_s: float = 0.0
    fill_time_s: float = 0.0
    tx_bytes: int = 0
    announce_bytes: int = 0
    pages_reused: int = 0
    pages_pushed: int = 0
    remote_faults: float = 0.0
    fault_stall_s: float = 0.0

    @property
    def total_time_s(self) -> float:
        """Downtime plus the degraded fill phase."""
        return self.downtime_s + self.fill_time_s

    def summary(self) -> str:
        """One-line human-readable summary for CLI output."""
        return (
            f"{self.strategy:>16s}  {self.memory_bytes / 2**20:6.0f} MiB  "
            f"{self.link:<12s}  down={self.downtime_s * 1000:6.1f}ms  "
            f"fill={self.fill_time_s:7.2f}s  tx={self.tx_bytes / 2**20:9.1f} MiB  "
            f"faults={self.remote_faults:8.0f}  stall={self.fault_stall_s:6.2f}s"
        )


def simulate_postcopy(
    vm: SimVM,
    strategy: MigrationStrategy,
    link: Link,
    checkpoint: Optional[Checkpoint] = None,
    config: PostcopyConfig = PostcopyConfig(),
) -> PostcopyReport:
    """Simulate one post-copy migration of ``vm``.

    Which pages cross the wire is the strategy's own first-round rule
    (:func:`~repro.core.transfer.compute_transfer_set`): with a
    checkpoint the destination preloads it, and the pages that rule
    reuses or skips are resident from the start; every other page
    travels in pre-copy's message (with its checksum under a hash
    strategy, §3.2), a dedup hit as a reference.  Without a checkpoint
    (a first visit) the kernel's first-visit rule applies, as in
    pre-copy: nothing is resident, and a hash strategy still pays the
    empty announce.

    Unlike pre-copy, the guest's in-flight writes do not enlarge the
    transfer set — a page dirtied at the destination is already
    resident — which is why the model needs no rounds.
    """
    report = PostcopyReport(
        strategy=strategy.name,
        vm_id=vm.vm_id,
        memory_bytes=vm.memory_bytes,
        link=link.name,
    )
    n = vm.num_pages
    current = vm.fingerprint()
    wire = strategy.wire

    # A checkpoint the method does not use is ignored; a wrong-sized one
    # is rejected by the kernel (or the dirty scan) with ValueError.
    method = strategy.method
    fingerprint = index = dirty_slots = None
    if checkpoint is not None and method.uses_checkpoint:
        fingerprint = checkpoint.fingerprint
        index = checkpoint.index if method.uses_hashes else None
        dirty_slots = vm.dirty_slots_since(checkpoint) if method.uses_dirty_tracking else None
    transfer_set = compute_transfer_set(method, current, fingerprint, dirty_slots, index)
    unique = None if index is None else len(index)
    traffic = first_round_traffic(
        transfer_set, wire, announce_pages(method, unique, config.announce_known)
    )
    report.announce_bytes = traffic.announce_bytes
    announce_time = link.transfer_time(traffic.announce_bytes) if traffic.announce_bytes else 0.0

    # Resident at resume: checkpoint content verified by checksum, or a
    # clean slot under dirty tracking.  Every other slot is missing
    # until its page (or, for a dedup hit, its reference) arrives.
    report.pages_reused = transfer_set.checksum_only_pages + transfer_set.skipped_pages
    report.pages_pushed = transfer_set.full_pages
    missing = n - report.pages_reused

    # Downtime: CPU/device state only — post-copy's signature property.
    report.downtime_s = config.switchover_s

    # Background pre-paging streams the missing pages, each in the
    # message pre-copy sends it in; a resident page sends nothing.
    push_bytes = (
        traffic.payload_bytes - transfer_set.checksum_only_pages * wire.checksum_message
    )
    fill_time = announce_time + (
        link.transfer_time(push_bytes) if missing else 0.0
    )
    report.fill_time_s = fill_time
    report.tx_bytes += push_bytes

    # Demand faults: the guest touches pages at `access_rate`; a touch
    # lands on a non-resident page with probability equal to the
    # (shrinking) non-resident fraction, which averages missing/(2n)
    # over the linear fill.
    access_rate = config.access_rate_pages_per_s
    if access_rate is None:
        access_rate = vm.dirty_rate_pages_per_s * config.access_read_multiplier
    if missing and access_rate > 0:
        average_nonresident = missing / (2.0 * n)
        faults = access_rate * fill_time * average_nonresident
        per_fault = link.rtt_s + PAGE_SIZE / link.effective_bandwidth
        report.remote_faults = faults
        report.fault_stall_s = faults * per_fault
        # Faulted pages ride the same stream; count their message
        # overhead once more (they jump the push queue).
        report.tx_bytes += int(faults) * wire.header_bytes

    # The guest keeps running (at the destination) during the fill.
    vm.run_for(report.total_time_s)
    return report
