"""Pinned regressions: the telemetry aggregator's wallclock is injected.

Found by ``vecycle lint``'s determinism rule: ``TelemetryAggregator``
read ``time.time()`` directly, so chaos-soak replays of telemetry loss
produced timestamps that differed run to run.  It now takes a ``clock``
callable (default wallclock); these tests pin that the injected clock
is the only time source behind series samples and dashboard ages.
"""

import asyncio
import time

from repro.orchestrator.registry import ClusterRegistry
from repro.orchestrator.telemetry import TelemetryAggregator
from repro.runtime import CheckpointDaemon


class _TickClock:
    """A deterministic clock: advances by one second per reading."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_aggregator_sample_and_dashboard_use_injected_clock():
    clock = _TickClock(start=2000.0)

    async def scenario():
        registry = ClusterRegistry(controller_id="ctl")
        aggregator = TelemetryAggregator(registry, clock=clock)
        async with CheckpointDaemon(name="a") as daemon:
            registry.register("a", daemon.host, daemon.port)
            await aggregator.poll_all()
            snapshot = aggregator._last["a"]
            view = aggregator.dashboard_view()
            return list(aggregator.series), view, snapshot

    series, view, snapshot = asyncio.run(scenario())
    # One poll_all = one series sample; its stamp is the clock reading.
    assert [sample["taken_at"] for sample in series] == [2001.0]
    # The dashboard ages the daemon's snapshot with the same injected
    # clock: reading two (2002.0) minus the snapshot's own stamp.
    (host,) = view["hosts"]
    assert host["age_s"] == 2002.0 - snapshot.taken_at
    assert view["taken_at"] == 2003.0


def test_default_clock_is_wallclock():
    # The default stays time.time so operator-facing ages remain real.
    aggregator = TelemetryAggregator(ClusterRegistry())
    assert aggregator._clock is time.time
