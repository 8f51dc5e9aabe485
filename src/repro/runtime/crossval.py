"""Cross-validation: the live runtime versus the analytic model.

The repo has two parallel accounts of a migration: the analytic path
(:func:`~repro.core.transfer.compute_transfer_set` +
:func:`~repro.core.protocol.first_round_traffic`) predicts byte counts,
and the live runtime actually moves those bytes through a socket.  This
module runs the *same scenario* through both and compares, field by
field:

* payload bytes must agree **exactly** — data frames reproduce the
  analytic message layout byte for byte;
* announce traffic differs by the known 5-byte frame overhead;
* totals must agree within a small tolerance that absorbs the runtime's
  control frames (HELLO/READY/ROUND/COMPLETE/RESULT), which the
  analytic model deliberately ignores.

The default scenario is a scaled-down Figure 6 best case: an idle VM
returning to a host that kept its checkpoint, with a configurable
percentage of pages dirtied since.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.protocol import TrafficBreakdown, first_round_traffic
from repro.core.strategies import MigrationStrategy, VECYCLE
from repro.core.transfer import TransferSet, compute_transfer_set
from repro.mem.pagestore import PageStore
from repro.net.link import Link
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.faults import FaultInjector
from repro.runtime.metrics import MigrationMetrics
from repro.runtime.source import MigrationSource, RuntimeConfig, SourceState

MIB = 2**20


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


def relative_error(measured: float, predicted: float) -> float:
    """|measured − predicted| / predicted: every cross-validation's ratio.

    A zero prediction reads 0.0 when nothing was measured either and
    ``inf`` otherwise, so it passes no tolerance.
    """
    if predicted == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - predicted) / predicted


@dataclass
class CrossValidation:
    """Runtime measurement next to the analytic prediction."""

    scenario: Scenario
    runtime: MigrationMetrics
    transfer_set: TransferSet
    analytic: TrafficBreakdown
    announce_overhead_bytes: int

    @property
    def payload_delta_bytes(self) -> int:
        return self.runtime.payload_bytes - self.analytic.payload_bytes

    @property
    def announce_delta_bytes(self) -> int:
        """Should equal the known framing overhead (or 0 with no announce)."""
        return self.runtime.announce_bytes - self.analytic.announce_bytes

    @property
    def total_delta_fraction(self) -> float:
        """Relative disagreement on total bytes, control frames included."""
        return relative_error(self.runtime.total_bytes, self.analytic.total_bytes)

    def within(self, tolerance: float = 0.02) -> bool:
        """The ISSUE acceptance check: totals agree within ``tolerance``,
        payloads agree exactly, message counts agree exactly."""
        return (
            self.payload_delta_bytes == 0
            and self.runtime.messages == self.analytic.messages
            and self.total_delta_fraction <= tolerance
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
            f"delta={self.announce_delta_bytes} "
            f"(frame overhead {self.announce_overhead_bytes})",
            f"  control:  runtime={self.runtime.control_bytes} (unmodelled)",
            f"  messages: runtime={self.runtime.messages}  "
            f"analytic={self.analytic.messages}",
            f"  total:    runtime={self.runtime.total_bytes}  "
            f"analytic={self.analytic.total_bytes}  "
            f"delta={self.total_delta_fraction * 100:.3f}%",
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
    announce_unique = 0
    if method.uses_hashes and scenario.checkpoint is not None and not announce_known:
        announce_unique = scenario.checkpoint.num_unique
    analytic = first_round_traffic(
        transfer_set, strategy.wire, announce_unique_pages=announce_unique
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

    overhead = metrics.announce_bytes - analytic.announce_bytes
    return CrossValidation(
        scenario=scenario,
        runtime=metrics,
        transfer_set=transfer_set,
        analytic=analytic,
        announce_overhead_bytes=overhead,
    )


def run_cross_validation(
    scenario: Scenario,
    config: Optional[RuntimeConfig] = None,
    announce_known: bool = False,
) -> CrossValidation:
    """Synchronous wrapper for CLI and benchmark use."""
    return asyncio.run(cross_validate(scenario, config, announce_known))
