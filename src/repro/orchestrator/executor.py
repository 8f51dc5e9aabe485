"""Migration executor: admission control + bounded retry + reporting.

The executor is the only component that actually moves bytes.  It
wraps :meth:`~repro.runtime.source.MigrationSource.migrate` with:

* **Admission control** — a cluster-wide semaphore plus one per
  destination host, so a burst of placement decisions cannot flood a
  daemon past its advertised capacity.  The cluster slot is always
  acquired before the host slot (a fixed acquisition order, so two
  executors sharing limits cannot deadlock).
* **Retry on disconnect** — the source already retries transport
  failures internally per its
  :class:`~repro.runtime.source.RetryPolicy`; the executor adds one
  outer layer for the case where that budget is exhausted while the
  daemon was merely restarting.  Re-running the *same* source resumes
  the session (same session id → the daemon's READY frame reports the
  resume point, a completed session replays its RESULT idempotently).
* **Structured reporting** — every migration ends in a
  :class:`MigrationOutcome`; executor callers never see a raw
  exception for an individual migration failing.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs import flight, names
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.runtime.metrics import MigrationMetrics
from repro.runtime.source import (
    DirtyFeed,
    MigrationError,
    MigrationSource,
    RetryPolicy,
)

log = get_logger(__name__)


@dataclass(frozen=True)
class AdmissionLimits:
    """Concurrency caps enforced by the executor.

    Retry sleeps follow the same capped-exponential-with-jitter curve
    as the source's :class:`~repro.runtime.source.RetryPolicy` (one
    formula for the whole stack, not a second ad-hoc one):
    ``retry_backoff_s * 2**n`` capped at ``max_backoff_s``, jittered
    deterministically per VM so a burst of failures does not retry in
    lockstep.
    """

    cluster_max: int = 4
    per_host_max: int = 2
    max_attempts: int = 2
    retry_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    retry_jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.cluster_max < 1:
            raise ValueError(f"cluster_max must be >= 1, got {self.cluster_max}")
        if self.per_host_max < 1:
            raise ValueError(f"per_host_max must be >= 1, got {self.per_host_max}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def retry_policy(self) -> RetryPolicy:
        """The executor's outer retry curve as a shared RetryPolicy."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_backoff_s=self.retry_backoff_s,
            backoff_factor=2.0,
            max_backoff_s=self.max_backoff_s,
            jitter=self.retry_jitter,
        )


@dataclass
class MigrationOutcome:
    """What happened to one orchestrated migration."""

    vm_id: str
    destination: str
    ok: bool
    attempts: int
    metrics: Optional[MigrationMetrics] = None
    error_code: Optional[str] = None
    error: Optional[str] = None
    flight_record: Optional[str] = None
    """Path of the flight-recorder dump written when this migration
    failed (None for successes, or when dumping itself failed)."""
    checkpoint_generation: Optional[int] = None
    """The destination checkpoint generation the migrated image became
    (from the RESULT frame); what the orchestrator remembers to earn an
    announce skip or a DIGEST_DELTA manifest next time."""

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
        dirty_feed: Optional[DirtyFeed] = None,
    ) -> MigrationOutcome:
        """Execute one migration; never raises for a failed migration.

        ``destination`` is the placement-level host name (admission
        key); ``host``/``port`` is its socket address.
        """
        vm_id = source.state.vm_id
        async with self._cluster, self._host_slot(destination):
            self._active += 1
            names.ORCHESTRATOR_MIGRATIONS_ACTIVE.set(self._active)
            try:
                with _span(
                    "orchestrator.migrate",
                    vm=vm_id,
                    destination=destination,
                ) as migrate_span:
                    outcome = await self._run_with_retry(
                        source, destination, host, port, dirty_feed
                    )
                    migrate_span.set(
                        ok=outcome.ok,
                        attempts=outcome.attempts,
                        payload_bytes=outcome.payload_bytes,
                    )
            finally:
                self._active -= 1
                names.ORCHESTRATOR_MIGRATIONS_ACTIVE.set(self._active)
        if outcome.ok:
            names.ORCHESTRATOR_MIGRATIONS_COMPLETED.add(1)
        else:
            names.ORCHESTRATOR_MIGRATIONS_FAILED.add(1)
        if outcome.ok and outcome.metrics is not None:
            # Stop-and-copy downtime (last round's wall time) feeds the
            # vecycle_migration_downtime_seconds histogram that
            # `vecycle top` and the Prometheus endpoint report.
            names.ORCHESTRATOR_DOWNTIME_SECONDS.observe(outcome.metrics.downtime_s)
        if not outcome.ok:
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

    async def _run_with_retry(
        self,
        source: MigrationSource,
        destination: str,
        host: str,
        port: int,
        dirty_feed: Optional[DirtyFeed],
    ) -> MigrationOutcome:
        attempts = 0
        policy = self.limits.retry_policy()
        while True:
            attempts += 1
            try:
                metrics = await source.migrate(host, port, dirty_feed=dirty_feed)
                # getattr: test fakes implement only the migrate surface.
                generation = getattr(source, "result_generation", None)
                log.info(
                    "migration completed",
                    vm=source.state.vm_id,
                    destination=destination,
                    attempts=attempts,
                    checkpoint_generation=generation,
                )
                return MigrationOutcome(
                    vm_id=source.state.vm_id,
                    destination=destination,
                    ok=True,
                    attempts=attempts,
                    metrics=metrics,
                    checkpoint_generation=generation,
                )
            except MigrationError as exc:
                # Transport exhaustion is always worth one more outer
                # attempt (the daemon may have merely restarted).  A
                # protocol error is terminal *except* when the source
                # marked it retryable — a stream desync from a frame
                # truncated by the connection tearing, where a fresh
                # session recovers.  getattr: older MigrationError
                # pickles and test fakes lack the attribute.
                retryable = exc.code == "transport" or getattr(
                    exc, "retryable", False
                )
                if retryable and attempts < self.limits.max_attempts:
                    if exc.code != "transport":
                        # The desynced session's applied counts cannot
                        # be resumed; restart with a clean session id.
                        reset = getattr(source, "reset_session", None)
                        if reset is not None:
                            reset()
                    names.ORCHESTRATOR_MIGRATIONS_RETRIED.add(1)
                    log.warning(
                        "migration attempt failed; retrying",
                        vm=source.state.vm_id,
                        destination=destination,
                        attempt=attempts,
                        code=exc.code,
                        cause=exc.detail,
                    )
                    await asyncio.sleep(
                        policy.backoff(attempts - 1, key=source.state.vm_id)
                    )
                    continue
                log.error(
                    "migration failed",
                    vm=source.state.vm_id,
                    destination=destination,
                    attempts=attempts,
                    code=exc.code,
                    cause=exc.detail,
                )
                return MigrationOutcome(
                    vm_id=source.state.vm_id,
                    destination=destination,
                    ok=False,
                    attempts=attempts,
                    metrics=exc.metrics,
                    error_code=exc.code,
                    error=exc.detail,
                )
