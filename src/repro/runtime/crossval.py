"""Cross-validation: the live runtime versus the analytic model.

The repo has two parallel accounts of a migration: the analytic path
(:func:`~repro.core.transfer.compute_transfer_set` +
:func:`~repro.core.protocol.first_round_traffic`) predicts byte counts,
and the live runtime actually moves those bytes through a socket.  This
module runs the *same scenario* through both and compares, field by
field:

* payload bytes must agree **exactly** — data frames reproduce the
  analytic message layout byte for byte;
* announce bytes must agree **exactly** — both sides size the framed
  announce with :meth:`~repro.core.protocol.WireFormat.announce_frame_bytes`;
* the one term the analytic model does not charge, the runtime's
  control frames (HELLO/READY/ROUND/COMPLETE/RESULT), must stay within
  :data:`CONTROL_BYTES_PER_CONNECTION` for each connection opened — a
  bound in bytes, so it holds the same for a 1 MiB VM as for a 1 GiB
  one, and for a migration that sends nothing.

The default scenario is a scaled-down Figure 6 best case: an idle VM
returning to a host that kept its checkpoint, with a configurable
percentage of pages dirtied since.  Without its checkpoint it is a
first visit, compared the same way, except that the daemon refuses a
dirty-tracking strategy there (``no-checkpoint``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.protocol import TrafficBreakdown, announce_pages, first_round_traffic
from repro.core.strategies import MigrationStrategy, VECYCLE
from repro.core.transfer import TransferSet, compute_transfer_set
from repro.mem.pagestore import PageStore
from repro.net.link import Link
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.faults import FaultInjector
from repro.runtime.metrics import MigrationMetrics
from repro.runtime.source import MigrationSource, RuntimeConfig, SourceState

MIB = 2**20

CONTROL_BYTES_PER_CONNECTION = 512
"""Control-frame bytes :meth:`CrossValidation.within` allows per
connection: one HELLO/READY/ROUND/COMPLETE/RESULT exchange, 370–385 B
at 1–16 MiB, is all the model leaves out of the total."""


@dataclass(frozen=True)
class Scenario:
    """One migration scenario both paths can execute."""

    vm_id: str
    current: Fingerprint
    checkpoint: Optional[Fingerprint]
    dirty_slots: Optional[np.ndarray]
    strategy: MigrationStrategy
    link: Optional[Link] = None

    @property
    def num_pages(self) -> int:
        return self.current.num_pages


def idle_vm_scenario(
    size_mib: int = 16,
    updates_percent: float = 1.0,
    duplicate_fraction: float = 0.05,
    strategy: MigrationStrategy = VECYCLE,
    link: Optional[Link] = None,
    seed: int = 7,
) -> Scenario:
    """A scaled Figure 6 best case: idle VM returning to its old host.

    The destination kept the checkpoint from the VM's earlier
    out-migration; ``updates_percent`` of the pages changed content in
    the meantime (idle background daemons).  ``duplicate_fraction`` of
    slots repeat another slot's content, giving dedup something to find.
    """
    if not 0 <= updates_percent <= 100:
        raise ValueError(f"updates_percent must be in [0, 100], got {updates_percent}")
    rng = np.random.default_rng(seed)
    num_pages = size_mib * MIB // PageStore().page_size
    base = rng.integers(1, 2**63, size=num_pages, dtype=np.uint64)
    num_dup = int(num_pages * duplicate_fraction)
    if num_dup:
        dup_slots = rng.choice(num_pages, size=num_dup, replace=False)
        base[dup_slots] = base[rng.integers(0, num_pages, size=num_dup)]
    checkpoint = Fingerprint(hashes=base.copy())

    current = base.copy()
    num_dirty = int(round(num_pages * updates_percent / 100.0))
    dirty_slots = np.sort(rng.choice(num_pages, size=num_dirty, replace=False))
    if num_dirty:
        current[dirty_slots] = rng.integers(
            2**63, 2**64 - 1, size=num_dirty, dtype=np.uint64
        )
    return Scenario(
        vm_id=f"idle-{size_mib}mib",
        current=Fingerprint(hashes=current),
        checkpoint=checkpoint,
        dirty_slots=dirty_slots,
        strategy=strategy,
        link=link,
    )


@dataclass
class CrossValidation:
    """Runtime measurement next to the analytic prediction."""

    scenario: Scenario
    runtime: MigrationMetrics
    transfer_set: TransferSet
    analytic: TrafficBreakdown

    @property
    def payload_delta_bytes(self) -> int:
        return self.runtime.payload_bytes - self.analytic.payload_bytes

    @property
    def announce_delta_bytes(self) -> int:
        """Runtime minus model announce bytes; 0 when the two agree."""
        return self.runtime.announce_bytes - self.analytic.announce_bytes

    @property
    def control_bound_bytes(self) -> int:
        """:data:`CONTROL_BYTES_PER_CONNECTION` per connection opened."""
        return CONTROL_BYTES_PER_CONNECTION * (self.runtime.retries + 1)

    def within(self) -> bool:
        """Payload and announce bytes and message counts agree exactly,
        and the control frames — then the whole difference in totals —
        stay within :attr:`control_bound_bytes`."""
        return (
            self.payload_delta_bytes == 0
            and self.announce_delta_bytes == 0
            and self.runtime.messages == self.analytic.messages
            and self.runtime.control_bytes <= self.control_bound_bytes
        )

    def report(self) -> str:
        """Side-by-side comparison, one line per compared quantity."""
        lines = [
            f"cross-validation  vm={self.scenario.vm_id}  "
            f"strategy={self.scenario.strategy.name}  "
            f"pages={self.scenario.num_pages}",
            f"  payload:  runtime={self.runtime.payload_bytes}  "
            f"analytic={self.analytic.payload_bytes}  "
            f"delta={self.payload_delta_bytes}",
            f"  announce: runtime={self.runtime.announce_bytes}  "
            f"analytic={self.analytic.announce_bytes}  "
            f"delta={self.announce_delta_bytes}",
            f"  control:  runtime={self.runtime.control_bytes}  "
            f"bound={self.control_bound_bytes} (unmodelled)",
            f"  messages: runtime={self.runtime.messages}  "
            f"analytic={self.analytic.messages}",
            f"  total:    runtime={self.runtime.total_bytes}  "
            f"analytic={self.analytic.total_bytes}  "
            f"delta={self.runtime.total_bytes - self.analytic.total_bytes}",
        ]
        return "\n".join(lines)


async def cross_validate(
    scenario: Scenario,
    config: Optional[RuntimeConfig] = None,
    announce_known: bool = False,
    state_dir: Optional[str] = None,
    faults: Optional[FaultInjector] = None,
) -> CrossValidation:
    """Run ``scenario`` through the live runtime and the analytic model.

    Args:
        announce_known: Exercise the §3.3 ping-pong shortcut — the
            source is seeded with the destination checkpoint's generation
            and checksums, the daemon verifies the claim and skips the
            announce, and both paths charge zero announce traffic.
        state_dir: Durable state directory for the destination daemon;
            the migrated checkpoint survives there past this run.
        faults: An armed injector for the destination daemon (test and
            demo hook): the comparison must hold through the retries it
            provokes, payload delta still exactly 0.
    """
    strategy = scenario.strategy
    method = strategy.method
    config = config or RuntimeConfig(time_scale=0.0)
    pagestore = PageStore()

    transfer_set = compute_transfer_set(
        method,
        scenario.current,
        checkpoint=scenario.checkpoint,
        dirty_slots=scenario.dirty_slots,
    )
    unique = None if scenario.checkpoint is None else scenario.checkpoint.num_unique
    analytic = first_round_traffic(
        transfer_set, strategy.wire, announce_pages(method, unique, announce_known)
    )

    daemon = CheckpointDaemon(
        name="crossval-dest",
        time_scale=config.time_scale,
        pagestore=pagestore,
        state_dir=state_dir,
    )
    async with daemon:
        known = None
        if scenario.checkpoint is not None and method.uses_checkpoint:
            hosted = daemon.install_checkpoint(
                scenario.vm_id, scenario.checkpoint, strategy.checksum
            )
            if announce_known:
                known = (hosted.generation, hosted.distinct)
        if faults is not None:
            daemon.faults = faults
        source = MigrationSource(
            SourceState(
                vm_id=scenario.vm_id,
                hashes=scenario.current.hashes,
                pagestore=pagestore,
                dirty_slots=scenario.dirty_slots,
                known_remote=known,
            ),
            strategy,
            link=scenario.link,
            config=config,
        )
        metrics = await source.migrate(daemon.host, daemon.port)

    return CrossValidation(
        scenario=scenario,
        runtime=metrics,
        transfer_set=transfer_set,
        analytic=analytic,
    )


def run_cross_validation(
    scenario: Scenario,
    config: Optional[RuntimeConfig] = None,
    announce_known: bool = False,
) -> CrossValidation:
    """Synchronous wrapper for CLI and benchmark use."""
    return asyncio.run(cross_validate(scenario, config, announce_known))
