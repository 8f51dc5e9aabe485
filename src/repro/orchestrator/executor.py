"""Migration executor: admission control + structured reporting.

The executor is the only component that actually moves bytes.  It
wraps one call of :meth:`~repro.runtime.source.MigrationSource.migrate`
— which owns every reconnect of the migration and the one
:class:`~repro.runtime.metrics.MigrationMetrics` covering them — with:

* **Admission control** — a cluster-wide semaphore plus one per
  destination host, so a burst of placement decisions cannot flood a
  daemon past :attr:`AdmissionLimits.per_host_max`.  The cluster slot
  is always acquired before the host slot (a fixed acquisition order,
  so two executors sharing limits cannot deadlock).
* **Structured reporting** — every migration ends in a
  :class:`MigrationOutcome`; executor callers never see a raw
  exception for an individual migration failing.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs import flight, names
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.runtime.metrics import MigrationMetrics
from repro.runtime.source import MigrationError, MigrationSource

log = get_logger(__name__)


@dataclass(frozen=True)
class AdmissionLimits:
    """Concurrency caps enforced by the executor: how many migrations
    run at once cluster-wide, and how many into any one destination."""

    cluster_max: int = 4
    per_host_max: int = 2

    def __post_init__(self) -> None:
        if self.cluster_max < 1:
            raise ValueError(f"cluster_max must be >= 1, got {self.cluster_max}")
        if self.per_host_max < 1:
            raise ValueError(f"per_host_max must be >= 1, got {self.per_host_max}")


@dataclass
class MigrationOutcome:
    """What happened to one orchestrated migration."""

    vm_id: str
    destination: str
    ok: bool
    metrics: Optional[MigrationMetrics] = None
    error_code: Optional[str] = None
    error: Optional[str] = None
    flight_record: Optional[str] = None
    """Path of the flight-recorder dump written when this migration
    failed (None for successes, or when dumping itself failed)."""
    checkpoint_generation: Optional[int] = None
    """The destination checkpoint generation the migrated image became
    (from the RESULT frame); what the orchestrator remembers to earn an
    announce skip next time."""

    @property
    def attempts(self) -> int:
        """Connections the migration opened: one plus its reconnects."""
        return 1 + (self.metrics.retries if self.metrics is not None else 0)

    @property
    def payload_bytes(self) -> int:
        return self.metrics.payload_bytes if self.metrics is not None else 0

    @property
    def downtime_s(self) -> float:
        return self.metrics.downtime_s if self.metrics is not None else 0.0


class MigrationExecutor:
    """Runs placed migrations under the cluster's admission limits."""

    def __init__(self, limits: Optional[AdmissionLimits] = None) -> None:
        self.limits = limits or AdmissionLimits()
        self._cluster = asyncio.Semaphore(self.limits.cluster_max)
        self._per_host: Dict[str, asyncio.Semaphore] = {}
        self._active = 0

    def _host_slot(self, host_name: str) -> asyncio.Semaphore:
        slot = self._per_host.get(host_name)
        if slot is None:
            slot = asyncio.Semaphore(self.limits.per_host_max)
            self._per_host[host_name] = slot
        return slot

    async def run(
        self,
        source: MigrationSource,
        destination: str,
        host: str,
        port: int,
    ) -> MigrationOutcome:
        """Execute one migration; never raises for a failed migration.

        ``destination`` is the placement-level host name (admission
        key); ``host``/``port`` is its socket address.
        """
        vm_id = source.state.vm_id
        outcome = MigrationOutcome(vm_id=vm_id, destination=destination, ok=False)
        async with self._cluster, self._host_slot(destination):
            self._active += 1
            names.ORCHESTRATOR_MIGRATIONS_ACTIVE.set(self._active)
            try:
                with _span(
                    "orchestrator.migrate",
                    vm=vm_id,
                    destination=destination,
                ) as migrate_span:
                    try:
                        outcome.metrics = await source.migrate(host, port)
                        outcome.ok = True
                    except MigrationError as exc:
                        outcome.metrics = exc.metrics
                        outcome.error_code, outcome.error = exc.code, exc.detail
                    migrate_span.set(
                        ok=outcome.ok,
                        attempts=outcome.attempts,
                        payload_bytes=outcome.payload_bytes,
                    )
            finally:
                self._active -= 1
                names.ORCHESTRATOR_MIGRATIONS_ACTIVE.set(self._active)
        names.ORCHESTRATOR_MIGRATIONS_RETRIED.add(outcome.attempts - 1)
        if outcome.ok:
            outcome.checkpoint_generation = source.result_generation
            names.ORCHESTRATOR_MIGRATIONS_COMPLETED.add(1)
            if outcome.metrics is not None:
                # Stop-and-copy downtime (last round's wall time) feeds the
                # vecycle_migration_downtime_seconds histogram that
                # `vecycle top` and the Prometheus endpoint report.
                names.ORCHESTRATOR_DOWNTIME_SECONDS.observe(
                    outcome.metrics.downtime_s
                )
            log.info(
                "migration completed",
                vm=vm_id,
                destination=destination,
                attempts=outcome.attempts,
                checkpoint_generation=outcome.checkpoint_generation,
            )
        else:
            names.ORCHESTRATOR_MIGRATIONS_FAILED.add(1)
            log.error(
                "migration failed",
                vm=vm_id,
                destination=destination,
                attempts=outcome.attempts,
                code=outcome.error_code,
                cause=outcome.error,
            )
            # A failed migration is exactly when the recent-event ring
            # matters: snapshot it now, while the context is fresh.
            flight.default_recorder().note(
                "migration.failed",
                vm=vm_id,
                destination=destination,
                attempts=outcome.attempts,
                code=outcome.error_code,
                error=outcome.error,
            )
            outcome.flight_record = flight.default_recorder().dump(
                f"migration failed vm={vm_id} dest={destination} "
                f"code={outcome.error_code}"
            )
        return outcome
