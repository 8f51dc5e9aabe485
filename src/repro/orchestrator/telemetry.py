"""Cluster telemetry aggregator: poll daemons, merge, expose.

The controller-side half of the telemetry plane
(:mod:`repro.obs.telemetry`).  The aggregator polls every registered
daemon with a TELEMETRY frame — through the registry's request/reply
client, on the same kept-alive control channel as its HEARTBEAT
probes — and keeps two snapshots per host:

* ``_last``, the newest snapshot of the running daemon process (its
  *incarnation*); snapshots are cumulative, so it holds everything
  this incarnation counted;
* ``_retired``, the earlier incarnations' final snapshots folded
  together, gauges dropped (a dead process has no level).  A restart —
  a sequence regression or a shrinking counter — moves ``_last`` in
  here, losing only the unobserved gap.

Every view is a :func:`~repro.obs.telemetry.merge_instruments` fold of
those — per host, across the cluster, and per VM behind the label guard
daemons apply locally.  The views have two readers, the Prometheus page
and the ``vecycle top`` view; both add the controller's own process
registry, which holds no daemon's instruments: a daemon counts only
into its own source, so each host's numbers arrive once, over the wire.
A host's dashboard age is the ``time.monotonic()`` seconds since the
controller took in its newest snapshot, so it never mixes two hosts'
notions of the time of day.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs import names
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry as _metrics
from repro.obs.metrics import quantile_from_state
from repro.obs.prometheus import render_sections
from repro.obs.telemetry import (
    MetricsSnapshot,
    counter_value,
    merge_instruments,
    vm_label,
    vm_section,
)
from repro.obs.trace import span as _span
from repro.orchestrator.registry import PROBE_ERRORS, ClusterRegistry
from repro.runtime.frames import FrameCodec

log = get_logger(__name__)

_TELEMETRY_REQUEST = FrameCodec().encode_telemetry({})
"""A telemetry probe's one frame; every poll sends these same bytes."""


class TelemetryAggregator:
    """Polls daemons for metrics snapshots and merges them.

    Args:
        registry: The cluster registry providing daemon addresses and
            the request/reply client (the aggregator polls whoever is
            registered there, under the registry's probe timeout).
    """

    def __init__(self, registry: ClusterRegistry) -> None:
        self.registry = registry
        self._last: Dict[str, MetricsSnapshot] = {}
        self._received: Dict[str, float] = {}
        self._retired: Dict[str, MetricsSnapshot] = {}
        self.polls = 0
        self.poll_failures = 0
        self.restarts = 0
        self.seq_gaps = 0
        self.poll_seconds = 0.0

    # --- polling --------------------------------------------------------

    async def poll(self, name: str) -> Optional[MetricsSnapshot]:
        """Probe one daemon; folds its snapshot in and returns it.

        Returns None (and counts a failure) when the daemon is
        unreachable or its reply is not a snapshot — aggregation simply
        resumes at the next success, whose cumulative snapshot carries
        however much accumulated in between.
        """
        started = time.monotonic()
        try:
            return await self._poll(name)
        finally:
            self.poll_seconds += time.monotonic() - started

    async def poll_all(self) -> Dict[str, Optional[MetricsSnapshot]]:
        """Probe every registered daemon, all at once: the polls share
        one wait, and ``poll_seconds`` counts its wall time once."""
        hosts = self.registry.hosts()
        started = time.monotonic()
        try:
            snapshots = await asyncio.gather(*map(self._poll, hosts))
        finally:
            self.poll_seconds += time.monotonic() - started
        return dict(zip(hosts, snapshots))

    async def _poll(self, name: str) -> Optional[MetricsSnapshot]:
        record = self.registry.record(name)
        self.polls += 1
        with _span("orchestrator.telemetry", host=name) as probe_span:
            try:
                frame = await self.registry.probe(record, _TELEMETRY_REQUEST)
                snapshot = MetricsSnapshot.from_dict(frame.body or {})
            except PROBE_ERRORS as exc:
                self.poll_failures += 1
                probe_span.set(ok=False, cause=type(exc).__name__)
                names.ORCHESTRATOR_TELEMETRY_FAILED.add(1)
                log.warning(
                    "telemetry probe failed", host=name, cause=str(exc)
                )
                return None
            probe_span.set(ok=True, seq=snapshot.seq)
            names.ORCHESTRATOR_TELEMETRY_OK.add(1)
            self._ingest(name, snapshot)
            return snapshot

    # --- ingestion ------------------------------------------------------

    def _ingest(self, name: str, snapshot: MetricsSnapshot) -> None:
        previous = self._last.get(name)
        if previous is not None and snapshot.restarted_since(previous):
            self.restarts += 1
            log.warning(
                "daemon telemetry restarted",
                host=name,
                old_seq=previous.seq,
                new_seq=snapshot.seq,
            )
            self._retire(name, previous)
        elif previous is not None and snapshot.seq > previous.seq + 1:
            # Sequence numbers advance once per snapshot taken, and
            # other consumers (vecycle top, a second controller) also
            # take snapshots — a gap is expected then, but it still
            # means some intermediate state was observed elsewhere only.
            # Counters are cumulative, so nothing is lost; the gap is
            # just worth counting.
            self.seq_gaps += 1
        # Receipt first: the page thread ages every host in ``_last``.
        self._received[name] = time.monotonic()
        self._last[name] = snapshot

    def _retire(self, host: str, final: MetricsSnapshot) -> None:
        """Fold an ended incarnation's final snapshot into ``_retired``.

        Gauges are dropped: a dead process has no level, so a host's
        gauges read its newest incarnation's.
        """
        folded = [s for s in (self._retired.get(host), final) if s is not None]
        self._retired[host] = MetricsSnapshot(
            host=host,
            seq=final.seq,
            instruments={
                name: state
                for name, state in merge_instruments(s.instruments for s in folded).items()
                if state["type"] != "gauge"
            },
            per_vm=_vm_rollup(folded),
        )

    def _incarnations(self, host: Optional[str] = None) -> List[MetricsSnapshot]:
        """The retired fold and last snapshot of ``host``, or of every host."""
        hosts = [host] if host else list(self._last)
        return [
            snapshot
            for name in hosts
            for snapshot in (self._retired.get(name), self._last.get(name))
            if snapshot is not None
        ]

    # --- views ----------------------------------------------------------

    def host_instruments(self) -> Dict[str, Dict[str, Dict[str, Any]]]:
        """Accumulated instruments per host (host → name → state)."""
        return {host: self._instruments(host) for host in list(self._last)}

    def _instruments(self, host: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
        """One host's fold over its incarnations, or the whole cluster's."""
        return merge_instruments(s.instruments for s in self._incarnations(host))

    def cluster_instruments(self) -> Dict[str, Dict[str, Any]]:
        """All hosts' accumulations merged into one rollup."""
        return self._instruments()

    def per_vm(self) -> Dict[str, Dict[str, float]]:
        """Accumulated per-VM rollups (vm → counter name → value)."""
        return _vm_rollup(self._incarnations())

    @property
    def labels_folded(self) -> int:
        """How many VMs the cluster per-VM rollup folds into the overflow label."""
        incarnations = self._incarnations()
        seen = {vm for snapshot in incarnations for vm in snapshot.per_vm}
        return len(seen - set(_vm_rollup(incarnations)))

    def recycle_ratio(self, host: Optional[str] = None) -> float:
        """Recycled / (recycled + transferred) bytes, cluster or host."""
        instruments = self._instruments(host)
        recycled = counter_value(instruments, names.DAEMON_RECYCLED_BYTES.name)
        transferred = counter_value(instruments, names.DAEMON_TRANSFERRED_BYTES.name)
        denominator = recycled + transferred
        return recycled / denominator if denominator else 0.0

    def render_prometheus(self) -> str:
        """The controller's exposition page.

        Per-host sections from the wire, per-VM counter sections, then
        the controller's own process registry, as it is, under
        ``host="<controller_id>"``.  Daemons never count into that
        registry, so no host's series appears twice, even when its
        daemons run in the controller's process.
        """
        sections = [
            ({"host": host}, instruments)
            for host, instruments in sorted(self.host_instruments().items())
        ]
        sections += [
            ({"vm": vm}, vm_section(values))
            for vm, values in sorted(self.per_vm().items())
        ]
        sections.append(({"host": self.registry.controller_id}, _metrics().snapshot()))
        return render_sections(sections)

    def dashboard_view(self) -> Dict[str, Any]:
        """Everything ``vecycle top`` renders, as one JSON-able dict."""
        local = _metrics().snapshot()
        downtime = local.get("orchestrator.downtime_seconds", {})
        now = time.monotonic()
        hosts = []
        for name, acc in sorted(self.host_instruments().items()):
            hosts.append({
                "host": name,
                "seq": self._last[name].seq,
                "age_s": now - self._received[name],
                "sessions_completed": counter_value(acc, names.DAEMON_SESSIONS_COMPLETED.name),
                "recycled_bytes": counter_value(acc, names.DAEMON_RECYCLED_BYTES.name),
                "transferred_bytes": counter_value(acc, names.DAEMON_TRANSFERRED_BYTES.name),
                "recycle_ratio": self.recycle_ratio(name),
            })
        active = local.get("orchestrator.migrations.active", {})
        return {
            "controller": self.registry.controller_id,
            "hosts": hosts,
            "cluster": {
                "recycled_bytes": sum(h["recycled_bytes"] for h in hosts),
                "transferred_bytes": sum(
                    h["transferred_bytes"] for h in hosts
                ),
                "recycle_ratio": self.recycle_ratio(),
                "active_migrations": active.get("value", 0.0),
                "migrations_completed": counter_value(
                    local, "orchestrator.migrations.completed"
                ),
                "migrations_failed": counter_value(
                    local, "orchestrator.migrations.failed"
                ),
                "downtime_p50_s": quantile_from_state(downtime, 0.5),
                "downtime_p99_s": quantile_from_state(downtime, 0.99),
                "downtime_count": downtime.get("total", 0),
            },
            "per_vm": self.per_vm(),
            "health": {
                "polls": self.polls,
                "poll_failures": self.poll_failures,
                "restarts": self.restarts,
                "seq_gaps": self.seq_gaps,
                "labels_folded": self.labels_folded,
                "poll_seconds": self.poll_seconds,
            },
        }


def _vm_rollup(snapshots: Iterable[MetricsSnapshot]) -> Dict[str, Dict[str, float]]:
    """Per-VM values summed over ``snapshots``, behind the label guard."""
    states: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for snapshot in snapshots:
        for vm, values in snapshot.per_vm.items():
            label = vm_label(states, vm)
            states[label] = merge_instruments([states.get(label, {}), vm_section(values)])
    return {
        vm: {name: state["value"] for name, state in section.items()}
        for vm, section in states.items()
    }
