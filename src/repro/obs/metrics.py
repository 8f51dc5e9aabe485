"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The numeric companion to the span tracer: spans say *when* work
happened, the registry says *how much* accumulated — bytes by frame
kind, retries, migrations executed, distributions of page-transfer
sizes and round durations.  One process-wide default registry is shared
by the analytic engine, the live runtime, and the cluster simulator, so
a single export shows the whole run.

All instruments are plain Python objects with no locks: increments are
single bytecode-level dict/float operations, safe under the GIL for the
asyncio-concurrent runtime, and cheap enough to leave permanently on.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Optional, Sequence, Tuple

PAGE_BYTES_BUCKETS: Tuple[float, ...] = (
    64.0,
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
)
"""Histogram boundaries for per-message/page transfer sizes (bytes):
sub-header refs and checksums at the low end, 4 KiB pages in the
middle, chunked multi-page writes above."""

ROUND_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.003,
    0.01,
    0.03,
    0.1,
    0.3,
    1.0,
    3.0,
    10.0,
    30.0,
    100.0,
)
"""Histogram boundaries for round/phase durations (seconds), log-ish
spaced from sub-millisecond loopback rounds to WAN stop-and-copy."""

SCORE_BUCKETS: Tuple[float, ...] = (
    0.01,
    0.05,
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    1.0,
)
"""Histogram boundaries for [0, 1] placement-policy scores (expected
page-reuse fractions, sketch similarities)."""

STALL_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)
"""Histogram boundaries for stage stall times (seconds): how long the
daemon's receive loop waited on the write-behind backlog.  Finer-grained
at the low end than ROUND_SECONDS_BUCKETS because a healthy stage stalls
for microseconds, not milliseconds."""


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount} < 0")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible state for export."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins level (queue depth, fleet size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current level."""
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        """Adjust the level by ``amount`` (may be negative)."""
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible state for export."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-boundary histogram (cumulative-style buckets on export).

    ``boundaries`` are the inclusive upper edges of the first
    ``len(boundaries)`` buckets; one overflow bucket catches the rest.
    Boundaries are fixed at creation so two snapshots of the same
    histogram are always comparable across PRs.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, boundaries: Sequence[float]) -> None:
        edges = tuple(float(b) for b in boundaries)
        if not edges:
            raise ValueError(f"histogram {name}: boundaries must not be empty")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(f"histogram {name}: boundaries must increase")
        self.name = name
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample into its bucket."""
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within buckets.

        Fixed buckets only know how many samples landed between two
        edges, so the estimate assumes samples spread uniformly inside
        each bucket (standard Prometheus ``histogram_quantile``
        semantics).  The observed ``min``/``max`` tighten the open-ended
        first and overflow buckets and clamp the result, so ``q=0``
        returns the true minimum and ``q=1`` the true maximum.  An empty
        histogram returns ``0.0``.
        """
        return estimate_quantile(
            self.boundaries, self.counts, self.total, self.min, self.max, q
        )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible state for export."""
        return {
            "type": "histogram",
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
        }


def estimate_quantile(
    boundaries: Sequence[float],
    counts: Sequence[int],
    total: int,
    minimum: float,
    maximum: float,
    q: float,
) -> float:
    """Linear-interpolation quantile over fixed-bucket counts.

    Shared by :meth:`Histogram.quantile` (live instrument) and
    :func:`quantile_from_state` (serialized snapshot), so a dashboard
    reading wire snapshots computes the exact same percentile the
    producing process would.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    if total <= 0:
        return 0.0
    target = q * total
    cumulative = 0
    lowest_seen = False
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if index == 0 or not lowest_seen:
            lower = minimum
        else:
            lower = boundaries[index - 1]
        lowest_seen = True
        upper = boundaries[index] if index < len(boundaries) else maximum
        if cumulative + count >= target:
            fraction = (target - cumulative) / count
            value = lower + (upper - lower) * fraction
            return min(max(value, minimum), maximum)
        cumulative += count
    return maximum


def quantile_from_state(state: Dict[str, Any], q: float) -> float:
    """Quantile estimate from a histogram :meth:`~Histogram.snapshot`."""
    if state.get("type") != "histogram" or not state.get("total"):
        return 0.0
    minimum = state.get("min")
    maximum = state.get("max")
    boundaries = state["boundaries"]
    if minimum is None:
        minimum = 0.0
    if maximum is None:
        maximum = boundaries[-1]
    return estimate_quantile(
        boundaries, state["counts"], state["total"], minimum, maximum, q
    )


class MetricsRegistry:
    """Named instruments, created on first use.

    ``registry.counter("runtime.bytes.full").add(n)`` is the whole API:
    asking for an existing name returns the same object; asking for a
    name already registered as a different instrument type raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, boundaries: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create a histogram; default buckets are round seconds."""
        edges = boundaries if boundaries is not None else ROUND_SECONDS_BUCKETS
        return self._get(name, Histogram, lambda: Histogram(name, edges))

    def names(self) -> Tuple[str, ...]:
        """All registered instrument names, sorted."""
        return tuple(sorted(self._instruments))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as a JSON-compatible {name: state} dict."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def reset(self) -> None:
        """Forget every instrument (tests and fresh CLI runs)."""
        self._instruments = {}


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry
