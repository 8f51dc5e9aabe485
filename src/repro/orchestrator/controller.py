"""The orchestrator: registry + policy + executor, wired together.

One :class:`Orchestrator` is the control loop a cluster operator talks
to: it polls the registry for the latest inventories, asks the
placement policy for a scored destination, and hands the migration to
the executor.  Every placement is traced
(``orchestrator.place`` spans) and counted
(``orchestrator.placements``), and each policy's scores feed a
histogram (``orchestrator.score.<policy>``), so a run's decision
quality is visible in the obs summary tree next to the migration
traffic it produced.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.strategies import MigrationStrategy, VECYCLE_DEDUP
from repro.mem.pagestore import PageStore
from repro.obs import names
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.orchestrator.executor import MigrationExecutor, MigrationOutcome
from repro.orchestrator.inventory import digest_sketch
from repro.orchestrator.placement import (
    PlacementDecision,
    PlacementPolicy,
    PlacementRequest,
)
from repro.orchestrator.registry import ClusterRegistry
from repro.runtime.source import (
    DirtyFeed,
    MigrationSource,
    RuntimeConfig,
    SourceState,
)

log = get_logger(__name__)


class Orchestrator:
    """Drives placed, admission-controlled migrations across the fleet.

    Args:
        registry: The heartbeat service holding the cluster view.
        policy: Placement policy ranking destinations.
        executor: Migration executor; a default one (default admission
            limits) is built when omitted.
        strategy: Migration strategy for every orchestrated move.
        config: Source-side runtime config (timeouts, retry policy).
        pagestore: Content id → bytes expander shared with the VMs.
    """

    def __init__(
        self,
        registry: ClusterRegistry,
        policy: PlacementPolicy,
        executor: Optional[MigrationExecutor] = None,
        strategy: MigrationStrategy = VECYCLE_DEDUP,
        config: Optional[RuntimeConfig] = None,
        pagestore: Optional[PageStore] = None,
    ) -> None:
        self.registry = registry
        self.policy = policy
        self.executor = executor or MigrationExecutor()
        self.strategy = strategy
        self.config = config or RuntimeConfig()
        self.pagestore = pagestore or PageStore()
        self.locations: Dict[str, str] = {}
        self.decisions: list = []
        # What each (vm, destination) pair's checkpoint looked like the
        # last time we migrated there: the generation number plus its
        # distinct digest set.  Seeding the next source with it earns a
        # verified announce skip while that generation is still current;
        # once it is not, the destination sends the full announce.
        self._checkpoint_knowledge: Dict[
            Tuple[str, str], Tuple[int, FrozenSet[bytes]]
        ] = {}
        # Each VM's content ids and per-slot digests as of its last hop
        # (per checksum algorithm): the next hop digests only the slots
        # whose id changed.
        self._last_digests: Dict[
            Tuple[str, str], Tuple[np.ndarray, List[bytes]]
        ] = {}

    # --- placement ------------------------------------------------------

    def place(self, request: PlacementRequest) -> PlacementDecision:
        """Ask the policy for a scored destination; trace and count it."""
        view = self.registry.view()
        with _span(
            "orchestrator.place",
            vm=request.vm_id,
            policy=self.policy.name,
            source=request.source_host,
        ) as place_span:
            decision = self.policy.decide(request, view)
            place_span.set(
                destination=decision.destination or "(deferred)",
                score=round(decision.score, 4),
                deferred=decision.deferred,
            )
        names.ORCHESTRATOR_PLACEMENTS.add(1)
        if decision.deferred:
            names.ORCHESTRATOR_PLACEMENTS_DEFERRED.add(1)
        else:
            names.ORCHESTRATOR_SCORE.labelled(self.policy.name).observe(
                decision.score
            )
        self.decisions.append(decision)
        log.info(
            "placement decided",
            vm=request.vm_id,
            policy=self.policy.name,
            destination=decision.destination or "(deferred)",
            score=round(decision.score, 4),
            reason=decision.reason,
        )
        return decision

    def request_for(
        self,
        vm_id: str,
        hashes: np.ndarray,
        source_host: Optional[str] = None,
        active: bool = False,
        deferrals: int = 0,
        digests: Optional[Sequence[bytes]] = None,
    ) -> PlacementRequest:
        """Build a placement request, sketching the VM's current memory.

        ``digests`` are the image's per-slot checksums when the caller
        has them already (:meth:`migrate_vm` shares its one digest pass
        with the migration); they are computed here otherwise.
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        if digests is None:
            digests = self.pagestore.digests_for(hashes, self.strategy.checksum)
        return PlacementRequest(
            vm_id=vm_id,
            source_host=(
                source_host
                if source_host is not None
                else self.locations.get(vm_id, "")
            ),
            num_pages=int(hashes.shape[0]),
            page_size=self.pagestore.page_size,
            sketch=tuple(digest_sketch(digests)),
            active=active,
            deferrals=deferrals,
        )

    # --- the full loop --------------------------------------------------

    def _slot_digests(self, vm_id: str, hashes: np.ndarray) -> List[bytes]:
        """Per-slot digests of ``hashes``, O(churn) since the VM's last hop.

        Exact because a digest is a pure function of the content id (the
        page store's id → bytes mapping is): an unchanged id keeps its
        digest.  A first visit or a resized image takes the full pass.
        """
        checksum = self.strategy.checksum
        key = (vm_id, checksum.name)
        last = self._last_digests.get(key)
        if last is None or last[0].shape != hashes.shape:
            digests = self.pagestore.digests_for(hashes, checksum)
        else:
            last_hashes, digests = last
            changed = np.flatnonzero(last_hashes != hashes)
            if changed.size:
                digests = list(digests)
                fresh = self.pagestore.digests_for(hashes[changed], checksum)
                for slot, digest in zip(changed.tolist(), fresh):
                    digests[slot] = digest
        self._last_digests[key] = (hashes.copy(), digests)
        return digests

    async def migrate_vm(
        self,
        vm_id: str,
        hashes: np.ndarray,
        source_host: Optional[str] = None,
        active: bool = False,
        deferrals: int = 0,
        dirty_feed: Optional[DirtyFeed] = None,
        refresh: bool = True,
    ) -> Tuple[PlacementDecision, Optional[MigrationOutcome]]:
        """Place and execute one VM migration.

        Returns the decision plus the executor's outcome; the outcome is
        None when the policy deferred the migration.  With ``refresh``
        the registry re-polls every daemon first, so the decision sees
        checkpoints adopted by migrations that just finished.
        """
        if refresh:
            await self.registry.poll_all()
        # The hop's one digest pass: the placement sketch reads it here,
        # the migration below plans, encodes and verifies from it.
        hashes = np.asarray(hashes, dtype=np.uint64)
        digests = self._slot_digests(vm_id, hashes)
        request = self.request_for(
            vm_id, hashes, source_host=source_host, active=active,
            deferrals=deferrals, digests=digests,
        )
        decision = self.place(request)
        if decision.deferred:
            return decision, None
        source = MigrationSource(
            SourceState(
                vm_id=vm_id,
                hashes=hashes,
                pagestore=self.pagestore,
                known_remote=self._checkpoint_knowledge.get(
                    (vm_id, decision.destination)
                ),
            ),
            self.strategy,
            config=self.config,
            digests=digests,
        )
        host, port = self.registry.address_of(decision.destination)
        outcome = await self.executor.run(
            source, decision.destination, host, port, dirty_feed=dirty_feed
        )
        if outcome.ok:
            self.locations[vm_id] = decision.destination
            self.policy.record_migration(
                vm_id, request.source_host, decision.destination
            )
            final = source.final_digests()
            if final is not None and source.result_generation is not None:
                self._checkpoint_knowledge[(vm_id, decision.destination)] = (
                    source.result_generation,
                    final,
                )
        return decision, outcome
