"""Wire-exportable metrics snapshots: the cluster telemetry substrate.

:mod:`repro.obs.metrics` answers "how much accumulated *in this
process*"; this module makes that answer portable.  A
:class:`MetricsSnapshot` is a JSON-serializable view of a registry —
counters, gauges, fixed-bucket histograms, per-VM rollups, and a span
census — stamped with the exporting host's name and a monotonically
increasing sequence number, so a consumer polling snapshots over the
wire can

* detect daemon restarts (the sequence number goes backwards, or a
  cumulative counter shrinks),
* turn consecutive cumulative snapshots into increments
  (:meth:`MetricsSnapshot.delta`), and
* merge many hosts' snapshots into one cluster rollup
  (:func:`merge_instruments`).

A :class:`TelemetrySource` is the daemon-side half: a private
per-component registry (one per :class:`~repro.runtime.daemon.
CheckpointDaemon`, so co-hosted daemons in one process stay
distinguishable) plus per-VM labelled counters behind a cardinality
guard, snapshotted on every ``TELEMETRY`` probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs import names
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Label value that absorbs per-VM series past the cardinality cap.
OVERFLOW_LABEL = "__other__"

#: Span-name prefixes a daemon includes in its snapshot's span census.
DEFAULT_SPAN_PREFIXES: Tuple[str, ...] = ("daemon.",)

#: How many of the tracer's most recent records a snapshot scans for
#: its span census — bounds snapshot cost on long traced runs.
SPAN_CENSUS_WINDOW = 4096


@dataclass
class MetricsSnapshot:
    """One serializable, sequence-numbered registry snapshot.

    Attributes:
        host: Name of the exporting component ("hostA", "controller").
        seq: Monotonic per-source sequence number; restarts reset it,
            which is exactly how consumers detect them.
        taken_at: ``time.time()`` when the snapshot was taken.
        instruments: ``{name: state}`` as produced by
            :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
        per_vm: ``{vm_id: {counter_name: value}}`` labelled rollups.
        spans: ``{span_name: {"count": n, "wall_s": s}}`` census of
            recently finished spans (empty when tracing is off).
    """

    host: str
    seq: int
    taken_at: float
    instruments: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    per_vm: Dict[str, Dict[str, float]] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON wire body; :meth:`from_dict` inverts it."""
        return {
            "host": self.host,
            "seq": self.seq,
            "taken_at": self.taken_at,
            "instruments": self.instruments,
            "per_vm": self.per_vm,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        return cls(
            host=str(data.get("host", "")),
            seq=int(data.get("seq", 0)),
            taken_at=float(data.get("taken_at", 0.0)),
            instruments=dict(data.get("instruments", {})),
            per_vm={
                vm: dict(values)
                for vm, values in dict(data.get("per_vm", {})).items()
            },
            spans={
                name: dict(values)
                for name, values in dict(data.get("spans", {})).items()
            },
        )

    # --- delta semantics -------------------------------------------------

    def restarted_since(self, earlier: Optional["MetricsSnapshot"]) -> bool:
        """Whether the source restarted between ``earlier`` and now.

        True when there is no earlier snapshot, the sequence number did
        not advance, or any cumulative value went backwards (a process
        restart resets every counter).
        """
        if earlier is None:
            return True
        if self.seq <= earlier.seq:
            return True
        for name, state in self.instruments.items():
            old = earlier.instruments.get(name)
            if old is None or old.get("type") != state.get("type"):
                continue
            if state["type"] == "counter" and state["value"] < old["value"]:
                return True
            if state["type"] == "histogram" and state["total"] < old["total"]:
                return True
        return False

    def delta(
        self, earlier: Optional["MetricsSnapshot"]
    ) -> Tuple["MetricsSnapshot", bool]:
        """The increment this snapshot adds over ``earlier``.

        Returns ``(delta, restarted)``.  Counters and histograms become
        differences; gauges keep their latest value (levels have no
        meaningful increment).  After a restart the source's counters
        began again from zero, so the full snapshot *is* the increment
        — nothing before it can be recovered, and ``restarted=True``
        tells the caller to account the gap.
        """
        if self.restarted_since(earlier):
            return self, True
        assert earlier is not None
        instruments: Dict[str, Dict[str, Any]] = {}
        for name, state in self.instruments.items():
            old = earlier.instruments.get(name)
            if old is None or old.get("type") != state.get("type"):
                instruments[name] = state
                continue
            instruments[name] = _instrument_delta(state, old)
        per_vm: Dict[str, Dict[str, float]] = {}
        for vm, values in self.per_vm.items():
            old_values = earlier.per_vm.get(vm, {})
            diff = {
                key: value - old_values.get(key, 0.0)
                for key, value in values.items()
            }
            if any(v for v in diff.values()):
                per_vm[vm] = diff
        spans: Dict[str, Dict[str, float]] = {}
        for name, values in self.spans.items():
            old_values = earlier.spans.get(name, {})
            count = values.get("count", 0.0) - old_values.get("count", 0.0)
            if count > 0:
                spans[name] = {
                    "count": count,
                    "wall_s": values.get("wall_s", 0.0)
                    - old_values.get("wall_s", 0.0),
                }
        return (
            MetricsSnapshot(
                host=self.host,
                seq=self.seq,
                taken_at=self.taken_at,
                instruments=instruments,
                per_vm=per_vm,
                spans=spans,
            ),
            False,
        )


def _instrument_delta(
    state: Dict[str, Any], old: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-instrument difference; gauges pass through by value."""
    kind = state["type"]
    if kind == "counter":
        return {"type": "counter", "value": state["value"] - old["value"]}
    if kind == "gauge":
        return dict(state)
    if kind == "histogram":
        if state.get("boundaries") != old.get("boundaries"):
            return dict(state)
        counts = [n - o for n, o in zip(state["counts"], old["counts"])]
        total = state["total"] - old["total"]
        return {
            "type": "histogram",
            "boundaries": list(state["boundaries"]),
            "counts": counts,
            "total": total,
            "sum": state["sum"] - old["sum"],
            "mean": (state["sum"] - old["sum"]) / total if total else 0.0,
            "min": state.get("min"),
            "max": state.get("max"),
        }
    return dict(state)


def accumulate_instruments(
    into: Dict[str, Dict[str, Any]], delta: Mapping[str, Dict[str, Any]]
) -> None:
    """Fold an increment into an accumulated ``{name: state}`` map.

    Counters and histogram counts add; gauges are last-write-wins
    (``delta`` carries the latest level).  Histograms with mismatched
    boundaries cannot be combined — the newer one replaces the old,
    which only happens when the bucket layout itself changed between
    releases.
    """
    for name, state in delta.items():
        current = into.get(name)
        if current is None or current.get("type") != state.get("type"):
            into[name] = _copy_state(state)
            continue
        kind = state["type"]
        if kind == "counter":
            current["value"] += state["value"]
        elif kind == "gauge":
            current["value"] = state["value"]
        elif kind == "histogram":
            if current.get("boundaries") != state.get("boundaries"):
                into[name] = _copy_state(state)
                continue
            current["counts"] = [
                a + b for a, b in zip(current["counts"], state["counts"])
            ]
            current["total"] += state["total"]
            current["sum"] += state["sum"]
            current["mean"] = (
                current["sum"] / current["total"] if current["total"] else 0.0
            )
            for key, pick in (("min", min), ("max", max)):
                values = [
                    v for v in (current.get(key), state.get(key)) if v is not None
                ]
                current[key] = pick(values) if values else None
        else:
            into[name] = _copy_state(state)


def merge_instruments(
    maps: Iterable[Mapping[str, Dict[str, Any]]]
) -> Dict[str, Dict[str, Any]]:
    """Merge many ``{name: state}`` maps into one cluster rollup.

    Counters and histograms sum; gauges sum as well — a cluster-level
    gauge like "active sessions" is the sum of per-host levels.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for instruments in maps:
        for name, state in instruments.items():
            current = merged.get(name)
            if current is None or current.get("type") != state.get("type"):
                merged[name] = _copy_state(state)
                continue
            kind = state["type"]
            if kind in ("counter", "gauge"):
                current["value"] += state["value"]
            elif kind == "histogram":
                if current.get("boundaries") != state.get("boundaries"):
                    continue
                current["counts"] = [
                    a + b for a, b in zip(current["counts"], state["counts"])
                ]
                current["total"] += state["total"]
                current["sum"] += state["sum"]
                current["mean"] = (
                    current["sum"] / current["total"]
                    if current["total"]
                    else 0.0
                )
                for key, pick in (("min", min), ("max", max)):
                    values = [
                        v
                        for v in (current.get(key), state.get(key))
                        if v is not None
                    ]
                    current[key] = pick(values) if values else None
    return merged


def _copy_state(state: Mapping[str, Any]) -> Dict[str, Any]:
    copied = dict(state)
    if "counts" in copied:
        copied["counts"] = list(copied["counts"])
    if "boundaries" in copied:
        copied["boundaries"] = list(copied["boundaries"])
    return copied


class TelemetrySource:
    """Per-component metrics with per-VM labels, snapshotted on demand.

    Daemons in the demo fleet share one process (and therefore one
    process-wide registry), so each keeps its *own* source: counting
    into it as well as the global registry keeps per-host attribution
    without changing any existing metric.

    Args:
        host: The exporting component's name, stamped on snapshots.
        max_vm_labels: Cardinality guard — per-VM series beyond this
            many distinct VMs fold into :data:`OVERFLOW_LABEL` instead
            of growing the label space without bound (a fleet of
            millions of VMs must not make every snapshot huge).
    """

    def __init__(self, host: str, max_vm_labels: int = 64) -> None:
        self.host = host
        self.max_vm_labels = max_vm_labels
        self.registry = MetricsRegistry()
        self._per_vm: Dict[str, Dict[str, float]] = {}
        self._seq = 0

    # --- recording ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get-or-create a counter in this source's private registry."""
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create a gauge in this source's private registry."""
        return self.registry.gauge(name)

    def histogram(
        self, name: str, boundaries: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get-or-create a histogram in this source's private registry."""
        return self.registry.histogram(name, boundaries)

    def vm_count(self, vm_id: str, name: str, amount: float = 1.0) -> None:
        """Add to a per-VM labelled counter, folding past the cap."""
        values = self._per_vm.get(vm_id)
        if values is None:
            if (
                len(self._per_vm) >= self.max_vm_labels
                and vm_id != OVERFLOW_LABEL
            ):
                names.TELEMETRY_LABELS_FOLDED.on(self.registry).add(1)
                self.vm_count(OVERFLOW_LABEL, name, amount)
                return
            values = self._per_vm[vm_id] = {}
        values[name] = values.get(name, 0.0) + amount

    @property
    def seq(self) -> int:
        """Sequence number of the most recent snapshot."""
        return self._seq

    def sections(self) -> List[Tuple[Dict[str, str], Dict[str, Any]]]:
        """``(labels, instruments)`` pairs for Prometheus rendering.

        The host-labelled registry first, then one section per VM label
        (per-VM values rendered as counters).  Reading does not advance
        :attr:`seq` — scrapes must not disturb wire-delta bookkeeping.
        """
        sections: List[Tuple[Dict[str, str], Dict[str, Any]]] = [
            ({"host": self.host}, self.registry.snapshot())
        ]
        for vm in sorted(self._per_vm):
            sections.append(
                (
                    {"host": self.host, "vm": vm},
                    {
                        name: {"type": "counter", "value": value}
                        for name, value in sorted(self._per_vm[vm].items())
                    },
                )
            )
        return sections

    # --- snapshotting ---------------------------------------------------

    def snapshot(
        self,
        span_prefixes: Tuple[str, ...] = DEFAULT_SPAN_PREFIXES,
    ) -> MetricsSnapshot:
        """Take the next sequence-numbered snapshot.

        The span census covers the default tracer's most recent
        records whose names match ``span_prefixes`` — empty whenever
        tracing is disabled, so snapshots stay cheap by default.
        """
        self._seq += 1
        return MetricsSnapshot(
            host=self.host,
            seq=self._seq,
            taken_at=time.time(),
            instruments=self.registry.snapshot(),
            per_vm={vm: dict(v) for vm, v in self._per_vm.items()},
            spans=span_census(span_prefixes),
        )


def span_census(
    prefixes: Tuple[str, ...],
    window: int = SPAN_CENSUS_WINDOW,
) -> Dict[str, Dict[str, float]]:
    """Aggregate the tracer's recent spans by name: count + wall time."""
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    if not tracer.records:
        return {}
    census: Dict[str, Dict[str, float]] = {}
    for record in tracer.records[-window:]:
        if prefixes and not record.name.startswith(prefixes):
            continue
        entry = census.get(record.name)
        if entry is None:
            entry = census[record.name] = {"count": 0.0, "wall_s": 0.0}
        entry["count"] += 1
        entry["wall_s"] += record.duration_s
    return census


# --- active aggregator hook ----------------------------------------------
#
# The CLI's --trace-out machinery exports whatever ran; a run that used
# a TelemetryAggregator registers it here so the JSONL exporter can
# append the cluster time series without threading the object through
# every experiment signature.

_active_aggregator: Optional[Any] = None


def set_active_aggregator(aggregator: Optional[Any]) -> None:
    """Register the aggregator whose series exports ride --trace-out."""
    global _active_aggregator
    _active_aggregator = aggregator


def get_active_aggregator() -> Optional[Any]:
    """The most recently registered aggregator, if any."""
    return _active_aggregator
