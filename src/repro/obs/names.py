"""The metric-name registry: every instrument name, declared once.

Metric names used to live only as string literals scattered across the
packages that emit them, which is exactly how names drift
(``repo.bytes_reclaimed`` vs a hypothetical ``repo.bytes.reclaimed``)
and how dashboards silently go dark after a rename.  This module is the
single declaration point: every ``counter(...)``/``gauge(...)``/
``histogram(...)`` name literal in ``src/`` must match a
:class:`MetricSpec` here, and every spec here must be documented in
``docs/observability.md``.  Both directions are enforced statically by
``vecycle lint`` (:mod:`repro.lint.rules.metricnames`) and dynamically
by ``tests/lint/test_names_registry.py``, which diffs the live registry
after a real cluster run against the declarations.

Names are dot-separated lowercase segments.  A ``<label>`` segment is a
pattern placeholder standing for exactly one dynamic segment — e.g.
``runtime.bytes.<kind>`` covers ``runtime.bytes.full`` and friends.
Per-VM label counters carried inside TELEMETRY snapshots
(``recycled_bytes``/``transferred_bytes``/``sessions_completed`` keyed
by VM id) are snapshot fields, not registry instruments, and are
documented with the telemetry plane instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """One declared instrument: its name (or pattern), kind, and doc."""

    name: str
    kind: str
    doc: str

    @property
    def is_pattern(self) -> bool:
        return "<" in self.name


METRICS: Tuple[MetricSpec, ...] = (
    # --- chaos plane ----------------------------------------------------
    MetricSpec("chaos.faults.<kind>", COUNTER,
               "Faults injected by the soak runner, by schedule kind."),
    MetricSpec("chaos.faults.skipped", COUNTER,
               "Scheduled faults that could not be armed this round."),
    MetricSpec("chaos.invariant_violations", COUNTER,
               "Soak invariant checks that failed (should stay 0)."),
    MetricSpec("chaos.restarts", COUNTER,
               "Daemon kill+restart cycles performed by the soak."),
    MetricSpec("chaos.rounds", COUNTER,
               "Soak rounds completed."),
    # --- analytic cluster simulator -------------------------------------
    MetricSpec("cluster.migrations", COUNTER,
               "Migrations executed by the analytic cluster simulator."),
    MetricSpec("cluster.tx_bytes", COUNTER,
               "Bytes moved by the analytic cluster simulator."),
    # --- checkpoint daemon ----------------------------------------------
    MetricSpec("daemon.announce.delta", COUNTER,
               "Announces answered with a DIGEST_DELTA manifest."),
    MetricSpec("daemon.announce.full", COUNTER,
               "Announces answered with the full digest set."),
    MetricSpec("daemon.announce.skipped", COUNTER,
               "Announces skipped: source already knows the current "
               "generation."),
    MetricSpec("daemon.announced_digests", COUNTER,
               "Digests carried in full ANNOUNCE frames."),
    MetricSpec("daemon.apply_batches", COUNTER,
               "Decoded page-frame batches applied across completed "
               "sessions."),
    MetricSpec("daemon.close_errors", COUNTER,
               "Connection-cleanup failures swallowed at session end."),
    MetricSpec("daemon.heartbeats", COUNTER,
               "HEARTBEAT probes answered with an inventory report."),
    MetricSpec("daemon.injected_aborts", COUNTER,
               "Connections aborted by an armed fault plan."),
    MetricSpec("daemon.injected_stalls", COUNTER,
               "READY sends stalled by an armed fault plan."),
    MetricSpec("daemon.injected_telemetry_drops", COUNTER,
               "TELEMETRY probes dropped by an armed fault plan."),
    MetricSpec("daemon.injected_truncations", COUNTER,
               "READY frames truncated by an armed fault plan."),
    MetricSpec("daemon.pages_received", COUNTER,
               "Page frames applied across completed sessions."),
    MetricSpec("daemon.peer_errors", COUNTER,
               "Connections opened with an ERROR frame instead of a "
               "handshake."),
    MetricSpec("daemon.recycled_bytes", COUNTER,
               "Bytes NOT resent thanks to checkpoint recycling."),
    MetricSpec("daemon.result_replays", COUNTER,
               "RESULT frames replayed to reconnecting sources."),
    MetricSpec("daemon.respilled_segments", COUNTER,
               "Resident segments re-spilled after quarantine freed "
               "their durable copy."),
    MetricSpec("daemon.reused_from_store", COUNTER,
               "Pages resolved from the content store instead of the "
               "wire."),
    MetricSpec("daemon.reused_in_place", COUNTER,
               "Pages already correct in the preloaded checkpoint."),
    MetricSpec("daemon.sessions.completed", COUNTER,
               "Migration sessions that reached a RESULT."),
    MetricSpec("daemon.sessions.live_overflow", GAUGE,
               "Live sessions above the retention soft cap."),
    MetricSpec("daemon.sessions.poisoned", COUNTER,
               "Sessions retired after a mid-stream protocol violation."),
    MetricSpec("daemon.telemetry_probes", COUNTER,
               "TELEMETRY probes answered with a metrics snapshot."),
    MetricSpec("daemon.transferred_bytes", COUNTER,
               "Payload bytes actually received over the wire."),
    MetricSpec("daemon.writebehind.batches", COUNTER,
               "Write-behind backlogs handed to the repository, one "
               "thread hop each."),
    # --- analytic migration engine --------------------------------------
    MetricSpec("engine.announce_bytes", COUNTER,
               "Checksum-announce bytes charged by the analytic model."),
    MetricSpec("engine.host_migrations", COUNTER,
               "Host-level migrations simulated by the engine."),
    MetricSpec("engine.migrations", COUNTER,
               "Migrations simulated by the analytic engine."),
    MetricSpec("engine.pages_checksum_only", COUNTER,
               "Pages sent checksum-only in the analytic model."),
    MetricSpec("engine.pages_full", COUNTER,
               "Pages sent in full in the analytic model."),
    MetricSpec("engine.pages_ref", COUNTER,
               "Pages sent as dedup references in the analytic model."),
    MetricSpec("engine.round_bytes", HISTOGRAM,
               "Bytes per simulated pre-copy round."),
    MetricSpec("engine.round_seconds", HISTOGRAM,
               "Modelled seconds per simulated pre-copy round."),
    MetricSpec("engine.tx_bytes", COUNTER,
               "Total bytes moved by the analytic engine."),
    # --- delta manifests ------------------------------------------------
    MetricSpec("manifest.delta_ratio", HISTOGRAM,
               "Delta-manifest size relative to the full announce."),
    # --- orchestrator ---------------------------------------------------
    MetricSpec("orchestrator.crossval.migrations", COUNTER,
               "Live migrations replayed by the VDI cross-validation."),
    MetricSpec("orchestrator.downtime_seconds", HISTOGRAM,
               "Stop-and-copy downtime of completed live migrations."),
    MetricSpec("orchestrator.heartbeats.failed", COUNTER,
               "Heartbeat probes that failed."),
    MetricSpec("orchestrator.heartbeats.ok", COUNTER,
               "Heartbeat probes that returned an inventory."),
    MetricSpec("orchestrator.hosts.alive", GAUGE,
               "Hosts alive as of the last poll sweep."),
    MetricSpec("orchestrator.migrations.active", GAUGE,
               "Live migrations currently holding an admission slot."),
    MetricSpec("orchestrator.migrations.completed", COUNTER,
               "Live migrations that completed."),
    MetricSpec("orchestrator.migrations.failed", COUNTER,
               "Live migrations that exhausted their retries."),
    MetricSpec("orchestrator.migrations.retried", COUNTER,
               "Transport-level retries across live migrations."),
    MetricSpec("orchestrator.placements", COUNTER,
               "Placement decisions taken."),
    MetricSpec("orchestrator.placements.deferred", COUNTER,
               "Placements deferred (no admissible destination)."),
    MetricSpec("orchestrator.score.<policy>", HISTOGRAM,
               "Winning placement scores, one histogram per policy."),
    MetricSpec("orchestrator.telemetry.failed", COUNTER,
               "Telemetry polls that failed."),
    MetricSpec("orchestrator.telemetry.ok", COUNTER,
               "Telemetry polls that returned a snapshot."),
    # --- page/content stores --------------------------------------------
    MetricSpec("pagestore.digest_evictions", COUNTER,
               "Digest-cache entries evicted by the pagestore LRU."),
    MetricSpec("pagestore.page_evictions", COUNTER,
               "Page-cache entries evicted by the pagestore LRU."),
    # --- write-behind stage ---------------------------------------------
    MetricSpec("pipeline.stage_stall_seconds", HISTOGRAM,
               "How long a receive loop waited on the write-behind backlog."),
    MetricSpec("pipeline.stall.<stage>", COUNTER,
               "Seconds stalled per stage; the durable sink's "
               "writebehind is the only stage."),
    # --- checkpoint repository ------------------------------------------
    MetricSpec("repo.bytes_reclaimed", COUNTER,
               "Segment bytes freed by garbage collection."),
    MetricSpec("repo.fsync_batched", COUNTER,
               "Segment-directory fsyncs saved by group commit."),
    MetricSpec("repo.injected_corruptions", COUNTER,
               "Segment corruptions injected by tests/chaos."),
    MetricSpec("repo.quarantined", COUNTER,
               "Corrupt segments/manifests moved to quarantine."),
    MetricSpec("repo.recovered_checkpoints", COUNTER,
               "Checkpoints rebuilt from durable state on recovery."),
    # --- live migration source ------------------------------------------
    MetricSpec("runtime.announce_bytes", COUNTER,
               "Announce bytes received by sources."),
    MetricSpec("runtime.batch_flushes", COUNTER,
               "Coalesced frame-batch flushes on the send path."),
    MetricSpec("runtime.bytes.<kind>", COUNTER,
               "Wire bytes by page-frame kind "
               "(full/checksum/ref/plain)."),
    MetricSpec("runtime.control_bytes", COUNTER,
               "Control-frame bytes exchanged by sources."),
    MetricSpec("runtime.messages.<kind>", COUNTER,
               "Messages by page-frame kind (full/checksum/ref/plain)."),
    MetricSpec("runtime.migrations.<outcome>", COUNTER,
               "Live migrations by outcome (completed/failed)."),
    MetricSpec("runtime.retransmitted_bytes", COUNTER,
               "Bytes resent after reconnects."),
    MetricSpec("runtime.retries", COUNTER,
               "Transport retries performed by sources."),
    MetricSpec("runtime.round_bytes", HISTOGRAM,
               "Bytes per live pre-copy round."),
    MetricSpec("runtime.round_seconds", HISTOGRAM,
               "Wall seconds per live pre-copy round."),
    # --- telemetry plane ------------------------------------------------
    MetricSpec("telemetry.labels_folded", COUNTER,
               "Per-VM labels folded into the overflow label."),
)


_EXACT: Dict[str, MetricSpec] = {
    spec.name: spec for spec in METRICS if not spec.is_pattern
}
_PATTERNS: Tuple[MetricSpec, ...] = tuple(
    spec for spec in METRICS if spec.is_pattern
)


def declared_names() -> Tuple[str, ...]:
    """All declared names/patterns, sorted."""
    return tuple(sorted(spec.name for spec in METRICS))


def _segments_match(pattern: str, name: str) -> bool:
    want = pattern.split(".")
    have = name.split(".")
    if len(want) != len(have):
        return False
    for w, h in zip(want, have):
        if w.startswith("<") and w.endswith(">"):
            if not h:
                return False
        elif w != h:
            return False
    return True


def spec_for(name: str) -> Optional[MetricSpec]:
    """The spec covering ``name`` — exact first, then patterns."""
    spec = _EXACT.get(name)
    if spec is not None:
        return spec
    for candidate in _PATTERNS:
        if _segments_match(candidate.name, name):
            return candidate
    return None


def is_declared(name: str, kind: Optional[str] = None) -> bool:
    """True when ``name`` (optionally of ``kind``) is declared."""
    spec = spec_for(name)
    if spec is None:
        return False
    return kind is None or spec.kind == kind


def undeclared(names: Iterable[str]) -> List[str]:
    """The subset of ``names`` not covered by any declaration, sorted."""
    return sorted(name for name in set(names) if spec_for(name) is None)
