"""Every instrument the tree emits, declared once as a typed handle.

An emission site imports its handle and calls it::

    from repro.obs import names

    names.RUNTIME_RETRIES.add(metrics.retries)
    names.RUNTIME_BYTES.labelled(kind).add(num_bytes)
    names.DAEMON_HEARTBEATS.on(self.telemetry.registry).add()

so a misspelt name is an ``ImportError``/``AttributeError`` and a kind
mismatch (``.observe`` on a counter) an ``AttributeError``: nothing is
left for a linter to cross-check.  A handle owns the name, the doc
line and, for histograms, the bucket boundaries; it holds no state —
each call looks the instrument up by name in a string-keyed
:class:`~repro.obs.metrics.MetricsRegistry`, so snapshots, TELEMETRY
frames and Prometheus keys carry exactly the names declared here.

Names are dot-separated lowercase segments.  A ``<label>`` segment
marks a :class:`Family`: one instrument per dynamic last segment —
``runtime.bytes.<kind>`` covers ``runtime.bytes.full`` and friends.
Per-VM label counters carried inside TELEMETRY snapshots
(``recycled_bytes``/``transferred_bytes``/``sessions_completed`` keyed
by VM id) are snapshot fields, not registry instruments, and are
documented with the telemetry plane instead.

:func:`catalog_markdown` renders :data:`METRICS` as the "Name catalog"
of ``docs/observability.md``; a test keeps the committed block equal.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import (
    PAGE_BYTES_BUCKETS,
    ROUND_SECONDS_BUCKETS,
    SCORE_BUCKETS,
    STALL_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)


class _Handle:
    """A declared name and its doc line; subclasses add the one verb
    their kind of instrument has."""

    kind = ""

    def __init__(self, name: str, doc: str) -> None:
        self.name = name
        self.doc = doc


class CounterName(_Handle):
    """A declared counter: ``add`` is the only way to move it."""

    kind = "counter"

    def on(self, registry: Optional[MetricsRegistry] = None) -> Counter:
        """The live counter in ``registry`` (default: process-wide)."""
        return (get_registry() if registry is None else registry).counter(self.name)

    def add(self, amount: float = 1.0) -> None:
        """Increment the process-wide counter."""
        get_registry().counter(self.name).add(amount)


class GaugeName(_Handle):
    """A declared gauge: a last-write-wins level."""

    kind = "gauge"

    def on(self, registry: Optional[MetricsRegistry] = None) -> Gauge:
        """The live gauge in ``registry`` (default: process-wide)."""
        return (get_registry() if registry is None else registry).gauge(self.name)

    def set(self, value: float) -> None:
        """Replace the process-wide level."""
        get_registry().gauge(self.name).set(value)


class HistogramName(_Handle):
    """A declared histogram; the handle fixes its bucket boundaries."""

    kind = "histogram"

    def __init__(self, name: str, doc: str, boundaries: Sequence[float]) -> None:
        super().__init__(name, doc)
        self.boundaries = tuple(boundaries)

    def on(self, registry: Optional[MetricsRegistry] = None) -> Histogram:
        """The live histogram in ``registry`` (default: process-wide)."""
        registry = get_registry() if registry is None else registry
        return registry.histogram(self.name, self.boundaries)

    def observe(self, value: float) -> None:
        """Record one sample in the process-wide histogram."""
        self.on().observe(value)


class Family:
    """Instruments sharing a prefix and differing in their last segment.

    ``pattern`` ends in one ``<label>`` segment.  A family cannot be
    emitted itself; :meth:`labelled` names the member, which can.
    """

    def __init__(self, member, pattern: str, doc: str, *member_args) -> None:
        prefix, dot, label = pattern.rpartition(".")
        if not (dot and label.startswith("<") and label.endswith(">")):
            raise ValueError(f"family {pattern!r} must end in a <label> segment")
        self.name = pattern
        self.doc = doc
        self.kind = member.kind
        self._prefix = prefix + dot
        self._member = member
        self._member_args = member_args

    def labelled(self, segment: str):
        """The handle of the member whose last segment is ``segment``."""
        if not segment or "." in segment:
            raise ValueError(f"{self.name}: {segment!r} is not one name segment")
        return self._member(self._prefix + segment, self.doc, *self._member_args)

    def covers(self, name: str) -> bool:
        """True when ``name`` is this prefix plus exactly one segment."""
        rest = name[len(self._prefix):]
        return name.startswith(self._prefix) and bool(rest) and "." not in rest


# --- chaos plane --------------------------------------------------------
CHAOS_FAULTS = Family(
    CounterName, "chaos.faults.<kind>",
    "Faults injected by the soak runner, by schedule kind.")
CHAOS_FAULTS_SKIPPED = CounterName(
    "chaos.faults.skipped",
    "Scheduled faults that could not be armed this round.")
CHAOS_INVARIANT_VIOLATIONS = CounterName(
    "chaos.invariant_violations",
    "Soak invariant checks that failed (should stay 0).")
CHAOS_RESTARTS = CounterName(
    "chaos.restarts", "Daemon kill+restart cycles performed by the soak.")
CHAOS_ROUNDS = CounterName("chaos.rounds", "Soak rounds completed.")
# --- analytic cluster simulator -----------------------------------------
CLUSTER_MIGRATIONS = CounterName(
    "cluster.migrations",
    "Migrations executed by the analytic cluster simulator.")
CLUSTER_TX_BYTES = CounterName(
    "cluster.tx_bytes", "Bytes moved by the analytic cluster simulator.")
# --- checkpoint daemon --------------------------------------------------
DAEMON_ANNOUNCE_FULL = CounterName(
    "daemon.announce.full",
    "Announces sent in full; every other one is skipped.")
DAEMON_ANNOUNCE_SKIPPED = CounterName(
    "daemon.announce.skipped",
    "Announces skipped: source already knows the current generation.")
DAEMON_ANNOUNCED_DIGESTS = CounterName(
    "daemon.announced_digests", "Digests carried in full ANNOUNCE frames.")
DAEMON_APPLY_BATCHES = CounterName(
    "daemon.apply_batches",
    "Decoded page-frame batches applied across completed sessions; "
    "`daemon.pages_received` over this is frames per batch.")
DAEMON_CLOSE_ERRORS = CounterName(
    "daemon.close_errors",
    "Connection-cleanup failures swallowed at session end.")
DAEMON_HEARTBEATS = CounterName(
    "daemon.heartbeats", "HEARTBEAT probes answered with an inventory report.")
DAEMON_INJECTED_ABORTS = CounterName(
    "daemon.injected_aborts", "Connections aborted by an armed fault injector.")
DAEMON_INJECTED_STALLS = CounterName(
    "daemon.injected_stalls", "READY sends stalled by an armed fault injector.")
DAEMON_INJECTED_TELEMETRY_DROPS = CounterName(
    "daemon.injected_telemetry_drops",
    "TELEMETRY probes dropped by an armed fault injector.")
DAEMON_INJECTED_TRUNCATIONS = CounterName(
    "daemon.injected_truncations",
    "READY frames truncated by an armed fault injector.")
DAEMON_PAGES_RECEIVED = CounterName(
    "daemon.pages_received", "Page frames applied across completed sessions.")
DAEMON_PEER_ERRORS = CounterName(
    "daemon.peer_errors",
    "Connections opened with an ERROR frame instead of a handshake.")
DAEMON_RECYCLED_BYTES = CounterName(
    "daemon.recycled_bytes", "Bytes NOT resent thanks to checkpoint recycling.")
DAEMON_RESULT_REPLAYS = CounterName(
    "daemon.result_replays", "RESULT frames replayed to reconnecting sources.")
DAEMON_RESPILLED_SEGMENTS = CounterName(
    "daemon.respilled_segments",
    "Resident pages re-spilled after quarantine dropped their durable record.")
DAEMON_REUSED_FROM_STORE = CounterName(
    "daemon.reused_from_store",
    "Pages resolved from the content store instead of the wire.")
DAEMON_REUSED_IN_PLACE = CounterName(
    "daemon.reused_in_place",
    "Pages already correct in the preloaded checkpoint.")
DAEMON_SESSIONS_COMPLETED = CounterName(
    "daemon.sessions.completed", "Migration sessions that reached a RESULT.")
DAEMON_SESSIONS_LIVE_OVERFLOW = GaugeName(
    "daemon.sessions.live_overflow",
    "Live sessions above the retention soft cap.")
DAEMON_SESSIONS_POISONED = CounterName(
    "daemon.sessions.poisoned",
    "Sessions retired after a mid-stream protocol violation.")
DAEMON_TELEMETRY_PROBES = CounterName(
    "daemon.telemetry_probes",
    "TELEMETRY probes answered with a metrics snapshot.")
DAEMON_TRANSFERRED_BYTES = CounterName(
    "daemon.transferred_bytes",
    "Payload bytes actually received over the wire.")
DAEMON_WRITEBEHIND_BATCHES = CounterName(
    "daemon.writebehind.batches",
    "Write-behind backlogs handed to the repository, one thread hop each.")
# --- analytic migration engine ------------------------------------------
ENGINE_ANNOUNCE_BYTES = CounterName(
    "engine.announce_bytes",
    "Checksum-announce bytes charged by the analytic model.")
ENGINE_HOST_MIGRATIONS = CounterName(
    "engine.host_migrations", "Host-level migrations simulated by the engine.")
ENGINE_MIGRATIONS = CounterName(
    "engine.migrations", "Migrations simulated by the analytic engine.")
ENGINE_PAGES_CHECKSUM_ONLY = CounterName(
    "engine.pages_checksum_only",
    "Pages sent checksum-only in the analytic model.")
ENGINE_PAGES_FULL = CounterName(
    "engine.pages_full", "Pages sent in full in the analytic model.")
ENGINE_PAGES_REF = CounterName(
    "engine.pages_ref", "Pages sent as dedup references in the analytic model.")
ENGINE_ROUND_BYTES = HistogramName(
    "engine.round_bytes", "Bytes per simulated pre-copy round.",
    PAGE_BYTES_BUCKETS)
ENGINE_ROUND_SECONDS = HistogramName(
    "engine.round_seconds", "Modelled seconds per simulated pre-copy round.",
    ROUND_SECONDS_BUCKETS)
ENGINE_TX_BYTES = CounterName(
    "engine.tx_bytes", "Total bytes moved by the analytic engine.")
# --- orchestrator -------------------------------------------------------
ORCHESTRATOR_CROSSVAL_MIGRATIONS = CounterName(
    "orchestrator.crossval.migrations",
    "Live migrations replayed by the VDI cross-validation.")
ORCHESTRATOR_DOWNTIME_SECONDS = HistogramName(
    "orchestrator.downtime_seconds",
    "Stop-and-copy downtime of completed live migrations.",
    ROUND_SECONDS_BUCKETS)
ORCHESTRATOR_HEARTBEATS_FAILED = CounterName(
    "orchestrator.heartbeats.failed", "Heartbeat probes that failed.")
ORCHESTRATOR_HEARTBEATS_OK = CounterName(
    "orchestrator.heartbeats.ok", "Heartbeat probes that returned an inventory.")
ORCHESTRATOR_HOSTS_ALIVE = GaugeName(
    "orchestrator.hosts.alive", "Hosts alive as of the last poll sweep.")
ORCHESTRATOR_MIGRATIONS_ACTIVE = GaugeName(
    "orchestrator.migrations.active",
    "Live migrations currently holding an admission slot.")
ORCHESTRATOR_MIGRATIONS_COMPLETED = CounterName(
    "orchestrator.migrations.completed", "Live migrations that completed.")
ORCHESTRATOR_MIGRATIONS_FAILED = CounterName(
    "orchestrator.migrations.failed",
    "Live migrations that exhausted their retries.")
ORCHESTRATOR_MIGRATIONS_RETRIED = CounterName(
    "orchestrator.migrations.retried",
    "Reconnects across orchestrated live migrations.")
ORCHESTRATOR_PLACEMENTS = CounterName(
    "orchestrator.placements", "Placement decisions taken.")
ORCHESTRATOR_PLACEMENTS_DEFERRED = CounterName(
    "orchestrator.placements.deferred",
    "Placements deferred (no admissible destination).")
ORCHESTRATOR_SCORE = Family(
    HistogramName, "orchestrator.score.<policy>",
    "Winning placement scores, one histogram per policy.", SCORE_BUCKETS)
ORCHESTRATOR_TELEMETRY_FAILED = CounterName(
    "orchestrator.telemetry.failed", "Telemetry polls that failed.")
ORCHESTRATOR_TELEMETRY_OK = CounterName(
    "orchestrator.telemetry.ok", "Telemetry polls that returned a snapshot.")
# --- page/content stores ------------------------------------------------
PAGESTORE_DIGEST_EVICTIONS = CounterName(
    "pagestore.digest_evictions",
    "Digest-cache entries evicted by the pagestore LRU.")
PAGESTORE_PAGE_EVICTIONS = CounterName(
    "pagestore.page_evictions",
    "Page-cache entries evicted by the pagestore LRU.")
# --- write-behind stage -------------------------------------------------
PIPELINE_STAGE_STALL_SECONDS = HistogramName(
    "pipeline.stage_stall_seconds",
    "How long a receive loop waited on the write-behind backlog.",
    STALL_SECONDS_BUCKETS)
PIPELINE_STALL = Family(
    CounterName, "pipeline.stall.<stage>",
    "Seconds stalled per stage; the durable sink's writebehind is the "
    "only stage.")
# --- checkpoint repository ----------------------------------------------
REPO_BYTES_RECLAIMED = CounterName(
    "repo.bytes_reclaimed",
    "Payload bytes of records released with their last reference (and by "
    "gc); the pack space returns at compaction.")
REPO_FSYNC_BATCHED = CounterName(
    "repo.fsync_batched",
    "Records appended without an fsync of their own, made durable by a "
    "shared barrier.")
REPO_INJECTED_CORRUPTIONS = CounterName(
    "repo.injected_corruptions", "Record corruptions injected by tests/chaos.")
REPO_QUARANTINED = CounterName(
    "repo.quarantined", "Corrupt records/manifests moved or copied to quarantine.")
REPO_RECOVERED_CHECKPOINTS = CounterName(
    "repo.recovered_checkpoints",
    "Checkpoints rebuilt from durable state on recovery.")
# --- live migration source ----------------------------------------------
RUNTIME_ANNOUNCE_BYTES = CounterName(
    "runtime.announce_bytes", "Announce bytes received by sources.")
RUNTIME_BATCH_FLUSHES = CounterName(
    "runtime.batch_flushes", "Coalesced frame-batch flushes on the send path.")
RUNTIME_BYTES = Family(
    CounterName, "runtime.bytes.<kind>",
    "Wire bytes by page-frame kind (full/checksum/ref/plain).")
RUNTIME_CONTROL_BYTES = CounterName(
    "runtime.control_bytes", "Control-frame bytes exchanged by sources.")
RUNTIME_MESSAGES = Family(
    CounterName, "runtime.messages.<kind>",
    "Messages by page-frame kind (full/checksum/ref/plain).")
RUNTIME_MIGRATIONS = Family(
    CounterName, "runtime.migrations.<outcome>",
    "Live migrations by outcome (completed/failed).")
RUNTIME_RETRANSMITTED_BYTES = CounterName(
    "runtime.retransmitted_bytes", "Bytes resent after reconnects.")
RUNTIME_RETRIES = CounterName(
    "runtime.retries", "Reconnects performed by sources.")
RUNTIME_ROUND_BYTES = HistogramName(
    "runtime.round_bytes", "Bytes per live pre-copy round.", PAGE_BYTES_BUCKETS)
RUNTIME_ROUND_SECONDS = HistogramName(
    "runtime.round_seconds", "Wall seconds per live pre-copy round.",
    ROUND_SECONDS_BUCKETS)
# --- telemetry plane ----------------------------------------------------
TELEMETRY_LABELS_FOLDED = CounterName(
    "telemetry.labels_folded", "Per-VM labels folded into the overflow label.")

METRICS: Tuple[Union[_Handle, Family], ...] = tuple(
    value for value in list(globals().values())
    if isinstance(value, (_Handle, Family))
)
"""Every declaration above, in declaration order."""


def undeclared(names: Iterable[str]) -> List[str]:
    """The subset of ``names`` no handle or family declares, sorted."""
    exact = {metric.name for metric in METRICS}
    families = [metric for metric in METRICS if isinstance(metric, Family)]
    return sorted(
        name for name in set(names)
        if name not in exact and not any(f.covers(name) for f in families)
    )


def catalog_markdown() -> str:
    """The docs "Name catalog": one table per top-level prefix."""
    blocks = []
    ordered = sorted(METRICS, key=lambda metric: metric.name)
    for top, group in groupby(ordered, key=lambda metric: metric.name.split(".")[0]):
        rows = [f"| `{top}.*` | kind | meaning |", "|---|---|---|"]
        rows += [f"| `{m.name}` | {m.kind} | {m.doc} |" for m in group]
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks)
