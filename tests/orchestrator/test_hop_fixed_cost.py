"""What one steady-state hop derives and opens, as counts (no clock).

Three in-memory daemons, six VMs, one orchestrator and one telemetry
aggregator — the ``fleet_pingpong`` shape — at 3% churn a hop.  After
every VM has visited every host, one hop (``Orchestrator.migrate_vm``,
then ``TelemetryAggregator.poll_all``) may open one TCP connection (the
migration; every probe rides a kept-alive control channel), compute two
bottom-k sketches (the request's, and that of the one checkpoint adopted
since the previous poll) and hand ``PageStore.digests_for`` the contents
rewritten since the VM's last hop: everything else is read from what a
checkpoint generation, the VM's previous hop, or the migration already
derived.
"""

import asyncio

import numpy as np

from repro.core.strategies import VECYCLE_DEDUP
from repro.mem.pagestore import PageStore
from repro.orchestrator import (
    BestCheckpoint,
    ClusterRegistry,
    Orchestrator,
    PlacementDecision,
    PlacementPolicy,
    TelemetryAggregator,
)
from repro.orchestrator import controller
from repro.runtime import CheckpointDaemon, RuntimeConfig, hosted

HOSTS, VMS, PAGES = 3, 6, 1024
CHURN = round(0.03 * PAGES)
FAST = RuntimeConfig(io_timeout_s=5.0, connect_timeout_s=5.0, time_scale=0.0)


class Ring(PlacementPolicy):
    """Warm-up placement: every VM moves to the next host of the ring."""

    name = "ring"

    def decide(self, request, view):
        hosts = sorted(view.hosts())
        nxt = hosts[(hosts.index(request.source_host) + 1) % len(hosts)]
        return PlacementDecision(
            vm_id=request.vm_id, destination=nxt, policy=self.name,
            score=0.0, reason="ring",
        )


class Counts:
    """Counting wrappers around what a hop must not repeat or reopen."""

    def __init__(self, monkeypatch, fleet):
        self.sketches = 0
        self.digested_ids = 0
        self.source_digest_calls = 0
        self.connections = 0
        self._migrating = False
        real_sketch = hosted.digest_sketch
        real_digests_for = fleet.store.digests_for
        real_run = fleet.orchestrator.executor.run
        real_on_connection = CheckpointDaemon._on_connection

        def sketch(digests):
            self.sketches += 1
            return real_sketch(digests)

        def digests_for(content_ids, *args, **kwargs):
            self.digested_ids += len(np.asarray(content_ids))
            self.source_digest_calls += self._migrating
            return real_digests_for(content_ids, *args, **kwargs)

        async def run(*args, **kwargs):
            self._migrating = True
            try:
                return await real_run(*args, **kwargs)
            finally:
                self._migrating = False

        async def on_connection(daemon, stream):
            self.connections += 1
            await real_on_connection(daemon, stream)

        # A hosted checkpoint looks the function up in its module on
        # every call; the controller bound it at import.
        monkeypatch.setattr(hosted, "digest_sketch", sketch)
        monkeypatch.setattr(controller, "digest_sketch", sketch)
        monkeypatch.setattr(fleet.store, "digests_for", digests_for)
        monkeypatch.setattr(fleet.orchestrator.executor, "run", run)
        monkeypatch.setattr(CheckpointDaemon, "_on_connection", on_connection)

    def reset(self):
        self.sketches = self.digested_ids = 0
        self.source_digest_calls = self.connections = 0

    def reading(self):
        return (
            self.sketches, self.digested_ids, self.source_digest_calls,
            self.connections,
        )


class Fleet:
    def __init__(self, seed=5):
        self.rng = np.random.default_rng(seed)
        self.store = PageStore(cache_limit=4 * VMS * PAGES)
        self.images = {
            f"vm-{i}": self.rng.integers(1, 2**62, size=PAGES, dtype=np.uint64)
            for i in range(VMS)
        }
        self.daemons = {}
        self.registry = ClusterRegistry()
        self.aggregator = TelemetryAggregator(self.registry)
        self.orchestrator = None
        self.hops = 0

    async def __aenter__(self):
        for index in range(HOSTS):
            daemon = CheckpointDaemon(
                name=f"h{index}", time_scale=0.0, pagestore=self.store
            )
            await daemon.start()
            self.daemons[daemon.name] = daemon
            self.registry.register(daemon.name, daemon.host, daemon.port)
        self.orchestrator = Orchestrator(
            self.registry, Ring(), strategy=VECYCLE_DEDUP, config=FAST,
            pagestore=self.store,
        )
        hosts = sorted(self.daemons)
        for index, vm_id in enumerate(self.images):
            self.orchestrator.locations[vm_id] = hosts[index % HOSTS]
        # Every VM visits every host, so every later hop finds a checkpoint.
        for _ in range(HOSTS * VMS):
            await self.hop()
        self.orchestrator.policy = BestCheckpoint()
        return self

    async def __aexit__(self, *_exc):
        await self.registry.close()
        for daemon in self.daemons.values():
            await daemon.stop()

    async def hop(self):
        """Rewrite 3% of the next VM's pages, move it, poll telemetry."""
        vm_id = f"vm-{self.hops % VMS}"
        image = self.images[vm_id]
        slots = self.rng.choice(PAGES, size=CHURN, replace=False)
        image[slots] = self.rng.integers(2**62, 2**63, size=CHURN, dtype=np.uint64)
        decision, outcome = await self.orchestrator.migrate_vm(vm_id, image.copy())
        assert outcome is not None and outcome.ok, outcome
        await self.aggregator.poll_all()
        self.hops += 1
        return vm_id, self.daemons[decision.destination]


def test_a_steady_state_hop_sketches_twice_and_digests_its_churn(monkeypatch):
    async def main():
        async with Fleet() as fleet:
            counts = Counts(monkeypatch, fleet)
            # Every hop leaves one checkpoint newer than the last poll,
            # which the next hop's poll sketches.
            await fleet.hop()
            readings = []
            for _ in range(3):
                counts.reset()
                await fleet.hop()
                readings.append(counts.reading())
            return readings, fleet.aggregator.poll_failures

    readings, poll_failures = asyncio.run(main())
    assert readings[0] == readings[1] == readings[2], "the counts must repeat"
    sketches, digested_ids, source_digest_calls, connections = readings[0]
    # The request's sketch and the newly adopted checkpoint's; the other
    # 17 hosted checkpoints did not change (19 before the views were cached).
    assert sketches <= 2
    # The contents rewritten since the VM's last hop, and nothing else:
    # the unchanged slots keep their digests (PAGES - CHURN was the
    # lower bound while every hop digested the whole image, ≈ 5 × PAGES
    # before the source kept its table).
    assert 0 < digested_ids <= CHURN
    # The migration plans, encodes and verifies from the digests the
    # orchestrator handed it.
    assert source_digest_calls == 0
    # The migration; three heartbeats and three telemetry polls ride
    # the kept-alive control channels (seven connections a hop before).
    assert connections == 1
    assert poll_failures == 0


def test_heartbeats_between_adoptions_recompute_nothing(monkeypatch):
    async def main():
        async with Fleet() as fleet:
            counts = Counts(monkeypatch, fleet)
            _, daemon = await fleet.hop()
            counts.reset()
            await fleet.registry.poll_all()
            first = daemon.inventory_report()
            assert counts.sketches == 1  # the checkpoint the hop just adopted
            await fleet.registry.poll_all()
            assert counts.sketches == 1
            assert daemon.inventory_report() == first

    asyncio.run(main())


def test_a_heartbeat_after_an_adoption_reports_the_new_image():
    async def main():
        async with Fleet() as fleet:
            await fleet.registry.poll_all()
            before = {
                name: daemon.inventory_report()
                for name, daemon in fleet.daemons.items()
            }
            vm_id, daemon = await fleet.hop()
            record = await fleet.registry.poll(daemon.name)
            sketch = record.inventory.checkpoints[vm_id]
            digests = fleet.store.digests_for(fleet.images[vm_id])
            assert list(sketch) == sorted(d.hex() for d in set(digests))[
                : hosted.SKETCH_K
            ]
            assert list(sketch) != before[daemon.name]["checkpoints"][vm_id]
            # The view is the adopted generation's, not a stale object's.
            assert daemon.checkpoint_digests(vm_id) == frozenset(digests)
            assert daemon.checkpoints[vm_id].announce_digests == list(
                dict.fromkeys(digests)
            )
            # Nobody else's report moved.
            for name, other in fleet.daemons.items():
                if other is not daemon:
                    assert other.inventory_report() == before[name]

    asyncio.run(main())
