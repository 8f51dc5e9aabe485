"""A live cluster on localhost: named daemons under one control plane.

Every harness that runs migrations through real daemons — the live VDI
replay, the chaos soak, the control-plane tests — needs the same parts:
one :class:`~repro.runtime.daemon.CheckpointDaemon` per host name over
one shared :class:`~repro.mem.pagestore.PageStore` (the deterministic
id → bytes expander the sources use too), each registered at the
address it bound, and one :class:`~repro.orchestrator.controller.
Orchestrator` and one :class:`~repro.orchestrator.telemetry.
TelemetryAggregator` over that registry.  :class:`LiveCluster` owns
them, restarts a daemon in place, and tears them down in one order:
the registry's control channels close before the daemons stop, also
when the boot fails half way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.core.strategies import VECYCLE_DEDUP, MigrationStrategy
from repro.mem.pagestore import PageStore
from repro.obs.telemetry import merge_instruments
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.placement import BestCheckpoint, PlacementPolicy
from repro.orchestrator.registry import ClusterRegistry
from repro.orchestrator.telemetry import TelemetryAggregator
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.source import RuntimeConfig


class LiveCluster:
    """Named localhost daemons, registered, with an orchestrator and an
    aggregator over them; an async context manager.

    Args:
        names: One daemon per host name, booted in this order.
        policy: The orchestrator's placement policy.
        strategy: The orchestrator's migration strategy.
        config: The orchestrator's source-side runtime config.
        state_root: When set, daemon ``name`` keeps its durable state in
            ``state_root/name`` and a restart recovers from there.
        io_timeout_s: Every daemon's per-read timeout.
        heartbeat_timeout_s: The registry's per-probe budget.
    """

    def __init__(
        self,
        names: Sequence[str],
        policy: Optional[PlacementPolicy] = None,
        strategy: MigrationStrategy = VECYCLE_DEDUP,
        config: Optional[RuntimeConfig] = None,
        state_root: Optional[Path] = None,
        io_timeout_s: float = 30.0,
        heartbeat_timeout_s: float = 5.0,
    ) -> None:
        self.names = list(names)
        self.state_root = state_root
        self.io_timeout_s = io_timeout_s
        self.pagestore = PageStore()
        self.daemons: Dict[str, CheckpointDaemon] = {}
        self.registry = ClusterRegistry(heartbeat_timeout_s=heartbeat_timeout_s)
        self.orchestrator = Orchestrator(
            self.registry,
            policy if policy is not None else BestCheckpoint(),
            strategy=strategy,
            config=config,
            pagestore=self.pagestore,
        )
        self.aggregator = TelemetryAggregator(self.registry)
        self.instruments: Dict[str, Dict[str, Any]] = {}
        """Every stopped daemon incarnation's final registry, folded: a
        daemon counts only into its own registry, which dies with it."""

    async def __aenter__(self) -> "LiveCluster":
        try:
            for name in self.names:
                await self._boot(name)
        except BaseException:
            await self.__aexit__()
            raise
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.registry.close()
        daemons, self.daemons = self.daemons, {}
        for daemon in daemons.values():
            await self._retire(daemon)

    async def restart(self, name: str) -> CheckpointDaemon:
        """Stop ``name``'s daemon and boot a fresh one in its place.

        The fresh daemon recovers from the same state directory, binds
        the old port when it is free (an ephemeral one when it is not),
        and is registered at the address it bound.
        """
        old = self.daemons.pop(name)
        await self._retire(old)
        return await self._boot(name, port=old.port or 0)

    async def _boot(self, name: str, port: int = 0) -> CheckpointDaemon:
        daemon = self.daemons[name] = CheckpointDaemon(
            name=name,
            pagestore=self.pagestore,
            state_dir=None if self.state_root is None else self.state_root / name,
            io_timeout_s=self.io_timeout_s,
        )
        try:
            await daemon.start(port=port)
        except OSError:
            if not port:
                raise
            await daemon.start()
        self.registry.register(name, daemon.host, daemon.port)
        return daemon

    async def _retire(self, daemon: CheckpointDaemon) -> None:
        await daemon.stop()
        self.instruments = merge_instruments(
            [self.instruments, daemon.telemetry.registry.snapshot()]
        )
