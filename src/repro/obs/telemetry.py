"""Wire-exportable metrics snapshots: the cluster telemetry substrate.

:mod:`repro.obs.metrics` answers "how much accumulated *in this
process*"; this module makes that answer portable.  A
:class:`MetricsSnapshot` is a JSON-serializable view of a registry —
counters, gauges, fixed-bucket histograms and per-VM rollups — stamped
with the exporting host's name and a monotonically increasing sequence
number.  Snapshots are cumulative, so a consumer polling them over the
wire can

* detect daemon restarts (:meth:`MetricsSnapshot.restarted_since`: the
  sequence number goes backwards, or a cumulative counter shrinks), and
* merge snapshots — many hosts', or one host's successive process
  incarnations — into one rollup (:func:`merge_instruments`).

A :class:`TelemetrySource` is the daemon-side half: a private
per-component registry (one per :class:`~repro.runtime.daemon.
CheckpointDaemon`, so co-hosted daemons in one process stay
distinguishable) plus per-VM labelled counters behind the cardinality
guard :func:`vm_label`, snapshotted on every ``TELEMETRY`` probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import names
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Label value that absorbs per-VM series past the cardinality cap.
OVERFLOW_LABEL = "__other__"

#: Per-VM label cap: a fleet of millions of VMs must not make every
#: snapshot (or the cluster rollup) huge.
MAX_VM_LABELS = 64


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
    """

    host: str
    seq: int
    taken_at: float
    instruments: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    per_vm: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON wire body; :meth:`from_dict` inverts it."""
        return {
            "host": self.host,
            "seq": self.seq,
            "taken_at": self.taken_at,
            "instruments": self.instruments,
            "per_vm": self.per_vm,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "MetricsSnapshot":
        """Parse a wire body; one that is not a snapshot is a FrameError."""
        try:
            return cls(
                host=str(data.get("host", "")),
                seq=int(data.get("seq", 0)),
                taken_at=float(data.get("taken_at", 0.0)),
                instruments={
                    str(name): _checked_state(state)
                    for name, state in dict(data.get("instruments", {})).items()
                },
                per_vm={
                    str(vm): {str(k): float(v) for k, v in dict(values).items()}
                    for vm, values in dict(data.get("per_vm", {})).items()
                },
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # Imported here: the runtime package imports this module.
            from repro.runtime.frames import FrameError

            raise FrameError(f"malformed telemetry snapshot: {exc!r}") from exc

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


def _checked_state(state: Any) -> Dict[str, Any]:
    """One wire instrument state, or an error if it is not one."""
    kind = state["type"]
    if kind in ("counter", "gauge"):
        numbers = [state["value"]]
    elif kind == "histogram":
        if len(state["counts"]) != len(state["boundaries"]) + 1:
            raise ValueError("histogram counts do not fit its boundaries")
        extremes = (state.get("min"), state.get("max"))
        numbers = [state["total"], state["sum"], *state["counts"],
                   *state["boundaries"], *(v for v in extremes if v is not None)]
    else:
        raise ValueError(f"unknown instrument type {kind!r}")
    if not all(isinstance(n, (int, float)) for n in numbers):
        raise TypeError(f"{kind} state holds a non-number")
    return state


def merge_instruments(
    maps: Iterable[Mapping[str, Dict[str, Any]]]
) -> Dict[str, Dict[str, Any]]:
    """Merge many ``{name: state}`` maps into one rollup.

    Counters and histograms sum; gauges sum as well — a cluster-level
    gauge like "active sessions" is the sum of per-host levels.
    Histograms whose boundaries differ from the first one seen are
    skipped: their buckets cannot be combined.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for instruments in maps:
        for name, state in instruments.items():
            current = merged.get(name)
            if current is None or current.get("type") != state.get("type"):
                merged[name] = _copy_state(state)
            elif state["type"] in ("counter", "gauge"):
                current["value"] += state["value"]
            elif (state["type"] == "histogram"
                  and current.get("boundaries") == state.get("boundaries")):
                current["counts"] = [a + b for a, b in zip(current["counts"], state["counts"])]
                current["total"] += state["total"]
                current["sum"] += state["sum"]
                current["mean"] = current["sum"] / current["total"] if current["total"] else 0.0
                for key, pick in (("min", min), ("max", max)):
                    values = [v for v in (current.get(key), state.get(key)) if v is not None]
                    current[key] = pick(values) if values else None
    return merged


def counter_value(instruments: Mapping[str, Dict[str, Any]], name: str) -> float:
    """A counter's (or gauge's) value in a ``{name: state}`` map; 0 if absent."""
    state = instruments.get(name)
    if not state or state.get("type") not in ("counter", "gauge"):
        return 0.0
    return float(state.get("value", 0.0))


def vm_label(seen: Mapping[str, Any], vm: str, cap: int = MAX_VM_LABELS) -> str:
    """The label ``vm`` counts under, given the labels ``seen`` so far.

    VMs seen first keep their label; once ``seen`` holds ``cap`` of
    them, later VMs fold into :data:`OVERFLOW_LABEL`.  Daemons apply it
    per host, the aggregator to the cluster-wide union.
    """
    if vm in seen or vm == OVERFLOW_LABEL or len(seen) < cap:
        return vm
    return OVERFLOW_LABEL


def vm_section(values: Mapping[str, float]) -> Dict[str, Dict[str, Any]]:
    """One VM's values as counter states: a Prometheus section body."""
    return {
        name: {"type": "counter", "value": value}
        for name, value in sorted(values.items())
    }


def _copy_state(state: Mapping[str, Any]) -> Dict[str, Any]:
    copied = dict(state)
    for key in ("counts", "boundaries"):
        if key in copied:
            copied[key] = list(copied[key])
    return copied


class TelemetrySource:
    """Per-component metrics with per-VM labels, snapshotted on demand.

    Daemons in the demo fleet share one process (and therefore one
    process-wide registry), so each keeps its *own* source: counting
    into it as well as the global registry keeps per-host attribution
    without changing any existing metric.

    Args:
        host: The exporting component's name, stamped on snapshots.
        max_vm_labels: Cardinality guard (:func:`vm_label`) — per-VM
            series beyond this many distinct VMs fold into
            :data:`OVERFLOW_LABEL`.
    """

    def __init__(self, host: str, max_vm_labels: int = MAX_VM_LABELS) -> None:
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
        label = vm_label(self._per_vm, vm_id, self.max_vm_labels)
        if label != vm_id:
            names.TELEMETRY_LABELS_FOLDED.on(self.registry).add(1)
        values = self._per_vm.setdefault(label, {})
        values[name] = values.get(name, 0.0) + amount

    @property
    def seq(self) -> int:
        """Sequence number of the most recent snapshot."""
        return self._seq

    def sections(self) -> List[Tuple[Dict[str, str], Dict[str, Any]]]:
        """``(labels, instruments)`` pairs for Prometheus rendering.

        The host-labelled registry first, then one section per VM label
        (per-VM values rendered as counters).  Reading does not advance
        :attr:`seq` — scrapes must not disturb the wire sequence.
        """
        return [({"host": self.host}, self.registry.snapshot())] + [
            ({"host": self.host, "vm": vm}, vm_section(self._per_vm[vm]))
            for vm in sorted(self._per_vm)
        ]

    # --- snapshotting ---------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Take the next sequence-numbered snapshot."""
        self._seq += 1
        return MetricsSnapshot(
            host=self.host,
            seq=self._seq,
            taken_at=time.time(),
            instruments=self.registry.snapshot(),
            per_vm={vm: dict(v) for vm, v in self._per_vm.items()},
        )


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
