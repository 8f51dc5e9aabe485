"""Cluster-wide invariants the chaos soak asserts after every round.

Faults may slow a migration down, make it retry, or fail it outright —
but they must never corrupt the cluster's *accounting*.  The checks
here are the definition of "not corrupt":

1. **Store accounting** — every daemon's content-store refcounts match
   the owners it should have (hosted checkpoints + live sessions); no
   leaks, no double releases (``CheckpointDaemon.audit_store``).
2. **Checkpoint generations** — per (host, VM), successive successful
   migrations adopt strictly increasing generations; a replayed RESULT
   must not mint a duplicate.
3. **Telemetry reconciliation** — the aggregator's per-host rollups of
   ``daemon.transferred_bytes`` / ``daemon.recycled_bytes`` /
   ``daemon.sessions.completed`` never exceed what the per-migration
   :class:`~repro.core.metrics.MigrationMetrics` say happened, and
   match exactly after a final clean poll.  Nothing is double counted
   across retries, RESULT replays, or daemon restarts.
4. **Recovery exactness** — a restarted daemon's
   ``repo.recovered_checkpoints`` counter advances by exactly the
   number of checkpoints it recovered, once.
5. **Repository integrity** — ``repository.verify()`` quarantines
   exactly the segments the schedule corrupted, and nothing else.

Violations are collected (not raised), counted in the metrics registry
(``chaos.invariant_violations``), noted in the flight recorder, and —
on the first violation of a run — flight-dumped for post-mortem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import flight, names
from repro.obs.log import get_logger
from repro.obs.telemetry import counter_value
from repro.orchestrator.telemetry import TelemetryAggregator

log = get_logger(__name__)

#: The daemon counters reconciled against per-migration metrics.
_ROLLUP_COUNTERS = (
    "daemon.transferred_bytes",
    "daemon.recycled_bytes",
    "daemon.sessions.completed",
)


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough detail to chase it."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


class InvariantChecker:
    """Accumulates expectations round by round and checks them.

    One checker lives for one soak run; it carries the cross-round
    ledgers (generation high-water marks, expected per-host rollups,
    injected-corruption bookkeeping) the per-round checks need.
    """

    def __init__(self) -> None:
        self.violations: List[InvariantViolation] = []
        self._generations: Dict[Tuple[str, str], int] = {}
        self._expected: Dict[str, Dict[str, float]] = {}
        self._injected: Dict[str, Set[str]] = {}
        self._dumped = False

    # --- recording ------------------------------------------------------

    def fail(self, name: str, detail: str) -> None:
        """Record one violation (public: the soak reports its own)."""
        violation = InvariantViolation(name=name, detail=detail)
        self.violations.append(violation)
        names.CHAOS_INVARIANT_VIOLATIONS.add()
        recorder = flight.default_recorder()
        recorder.note("chaos.invariant_violation", invariant=name, detail=detail)
        log.error("invariant violated", invariant=name, detail=detail)
        if not self._dumped:
            # One dump per run captures the state at first violation,
            # when the evidence is freshest.
            self._dumped = True
            try:
                flight.dump_all(f"chaos invariant violated: {name}")
            except OSError:  # pragma: no cover - dump dir unwritable
                pass

    def observe_outcome(
        self,
        round_no: int,
        destination: str,
        outcome,
        page_size: int,
    ) -> None:
        """Fold one migration outcome into the ledgers.

        Checks generation monotonicity for successful migrations and
        accumulates the per-host rollup expectations from the RESULT
        frame's sink statistics.
        """
        if outcome is None or not outcome.ok:
            return
        key = (destination, outcome.vm_id)
        generation = outcome.checkpoint_generation
        if generation is None:
            self.fail(
                "generation_missing",
                f"round {round_no}: ok migration of {outcome.vm_id} to "
                f"{destination} reported no checkpoint generation",
            )
        else:
            previous = self._generations.get(key)
            if previous is not None and generation <= previous:
                self.fail(
                    "generation_monotonicity",
                    f"round {round_no}: {outcome.vm_id}@{destination} "
                    f"adopted generation {generation} after {previous}",
                )
            self._generations[key] = (
                generation
                if previous is None
                else max(previous, generation)
            )
        stats = outcome.metrics.sink_stats if outcome.metrics else {}
        expected = self._expected.setdefault(
            destination, {name: 0.0 for name in _ROLLUP_COUNTERS}
        )
        expected["daemon.transferred_bytes"] += float(
            stats.get("rx_payload_bytes", 0)
        )
        reused = float(stats.get("reused_in_place", 0)) + float(
            stats.get("reused_from_store", 0)
        )
        expected["daemon.recycled_bytes"] += reused * page_size
        expected["daemon.sessions.completed"] += 1.0

    def record_corruption(self, host: str, digest_hex: str) -> None:
        """Remember an injected corruption so scrubs can be judged."""
        self._injected.setdefault(host, set()).add(digest_hex)

    def record_recovery(
        self, host: str, counter_delta: float, recovered: int
    ) -> None:
        """Invariant 4: the recovery counter advanced exactly once."""
        if counter_delta != recovered:
            self.fail(
                "recovery_double_count",
                f"{host}: repo.recovered_checkpoints advanced by "
                f"{counter_delta} for {recovered} recovered checkpoints",
            )

    # --- checks ---------------------------------------------------------

    def check_store_accounting(self, daemons: Dict[str, object], round_no: int) -> None:
        """Invariant 1: audit every daemon's refcounts."""
        for name in sorted(daemons):
            for problem in daemons[name].audit_store():
                self.fail(
                    "store_accounting", f"round {round_no}: {name}: {problem}"
                )

    def check_rollups(
        self,
        aggregator: TelemetryAggregator,
        round_no: int,
        final: bool = False,
    ) -> None:
        """Invariant 3: aggregator rollups vs. per-migration metrics.

        Mid-run the rollup may *lag* expectations (a dropped poll), but
        must never exceed them — an excess is a double count.  After
        the final clean ``poll_all`` the two must agree exactly.
        """
        instruments = aggregator.host_instruments()
        for host in sorted(set(self._expected) | set(instruments)):
            expected = self._expected.get(
                host, {name: 0.0 for name in _ROLLUP_COUNTERS}
            )
            rolled_up = instruments.get(host, {})
            for counter in _ROLLUP_COUNTERS:
                want = expected[counter]
                have = counter_value(rolled_up, counter)
                if have > want:
                    self.fail(
                        "rollup_double_count",
                        f"round {round_no}: {host}: {counter} rolled up "
                        f"{have:.0f}, migrations account for {want:.0f}",
                    )
                elif final and have < want:
                    self.fail(
                        "rollup_lost_count",
                        f"final: {host}: {counter} rolled up {have:.0f}, "
                        f"migrations account for {want:.0f}",
                    )

    def check_repositories(
        self, daemons: Dict[str, object], round_no: Optional[int] = None
    ) -> None:
        """Invariant 5: scrubs quarantine injected corruption, only.

        Consumes the injected ledger: a quarantined injected segment is
        crossed off, and a later scrub finding anything at all is a
        violation.
        """
        label = "final" if round_no is None else f"round {round_no}"
        for name in sorted(daemons):
            repository = getattr(daemons[name], "repository", None)
            if repository is None:
                continue
            report = repository.verify()
            injected = self._injected.get(name, set())
            for digest_hex in report.corrupt_segments:
                if digest_hex in injected:
                    injected.discard(digest_hex)
                else:
                    self.fail(
                        "repository_integrity",
                        f"{label}: {name}: scrub found corrupt segment "
                        f"{digest_hex[:12]} nobody injected",
                    )
            if report.quarantined_manifests and not report.corrupt_segments:
                self.fail(
                    "repository_integrity",
                    f"{label}: {name}: scrub quarantined manifests "
                    f"{report.quarantined_manifests} with no corrupt segment",
                )

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> List[str]:
        """All violations as stable strings (report / test assertions)."""
        return [str(violation) for violation in self.violations]
