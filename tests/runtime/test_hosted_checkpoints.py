"""Daemon checkpoint inventory (ISSUE S1): live ∪ durable, last-used."""

import asyncio

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE_DEDUP
from repro.mem.pagestore import PageStore
from repro.orchestrator.inventory import digest_sketch
from repro.runtime import (
    CheckpointDaemon,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.storage.repository import CheckpointManifest, CheckpointRepository

N = 64
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)


def fingerprint(seed=3, distinct=32):
    rng = np.random.default_rng(seed)
    return Fingerprint(
        hashes=rng.integers(1, distinct + 1, size=N, dtype=np.uint64),
        timestamp=42.0,
    )


def test_live_only_checkpoint_is_resident():
    daemon = CheckpointDaemon()
    fp = fingerprint()
    daemon.install_checkpoint("vm-live", fp)
    infos = daemon.hosted_checkpoints()
    assert [info.vm_id for info in infos] == ["vm-live"]
    info = infos[0]
    assert info.resident
    assert info.pages == N
    assert info.unique_pages == len(np.unique(fp.hashes))
    # No repository: stored size is estimated from distinct contents.
    assert info.stored_bytes == info.unique_pages * daemon.pagestore.page_size
    assert info.last_used == info.timestamp


def test_durable_only_checkpoint_is_listed_nonresident(tmp_path):
    daemon = CheckpointDaemon(state_dir=tmp_path)
    daemon.install_checkpoint("vm-live", fingerprint(seed=1))
    # A second repository handle commits a checkpoint the daemon never
    # sees through its live map — e.g. left behind by a prior
    # incarnation or a sibling handle.
    other = CheckpointRepository(tmp_path)
    store = PageStore()
    digests = []
    for content_id in (100, 101, 102):
        page = store.page_bytes(content_id)
        digest = store.digest_for(content_id)
        other.put_page(digest, page)
        digests.append(digest)
    other.commit_checkpoint(
        CheckpointManifest(
            vm_id="vm-cold", slot_digests=digests * 2, timestamp=7.0
        )
    )
    infos = {info.vm_id: info for info in daemon.hosted_checkpoints()}
    assert set(infos) == {"vm-cold", "vm-live"}
    cold = infos["vm-cold"]
    assert not cold.resident
    assert cold.pages == 6
    assert cold.unique_pages == 3
    assert cold.stored_bytes == 3 * store.page_size
    assert cold.timestamp == 7.0
    live = infos["vm-live"]
    assert live.resident
    # Resident + durable: stored size comes from the real segments.
    assert live.stored_bytes == live.unique_pages * store.page_size


def test_heartbeat_parses_each_manifest_once(tmp_path, monkeypatch):
    daemon = CheckpointDaemon(state_dir=tmp_path)
    daemon.install_checkpoint("vm-live", fingerprint(seed=1))
    other = CheckpointRepository(tmp_path)
    store = PageStore()
    cold = {}
    for vm_id, content_ids in (("vm-cold-a", (100, 101, 100)), ("vm-cold-b", (7,))):
        cold[vm_id] = store.digests_for(np.array(content_ids, dtype=np.uint64))
        for content_id in content_ids:
            other.put_page(store.digest_for(content_id), store.page_bytes(content_id))
        other.commit_checkpoint(
            CheckpointManifest(vm_id=vm_id, slot_digests=cold[vm_id])
        )
    parsed = []
    real = CheckpointManifest.from_json.__func__

    def counting(cls, text):
        manifest = real(cls, text)
        parsed.append(manifest.vm_id)
        return manifest

    monkeypatch.setattr(CheckpointManifest, "from_json", classmethod(counting))
    report = daemon.inventory_report(sketch_k=8)
    # The listing and the durable-only sketches share one read of each
    # manifest (the sketch used to load the cold ones a second time).
    assert sorted(parsed) == ["vm-cold-a", "vm-cold-b", "vm-live"]
    entries = {entry["vm_id"]: entry for entry in report["checkpoints"]}
    for vm_id, digests in cold.items():
        assert entries[vm_id]["resident"] is False
        assert entries[vm_id]["unique_pages"] == len(set(digests))
        assert entries[vm_id]["sketch"] == digest_sketch(digests, k=8)
    assert entries["vm-live"]["sketch"] == digest_sketch(
        daemon.checkpoints["vm-live"].slot_digests, k=8
    )


def test_last_used_advances_when_checkpoint_is_recycled():
    async def main():
        pagestore = PageStore()
        async with CheckpointDaemon(pagestore=pagestore) as daemon:
            fp = fingerprint()
            daemon.install_checkpoint("vm", fp)
            before = daemon.hosted_checkpoints()[0]
            assert before.last_used == fp.timestamp
            source = MigrationSource(
                SourceState("vm", fp.hashes, pagestore),
                VECYCLE_DEDUP,
                config=FAST,
            )
            metrics = await source.migrate(daemon.host, daemon.port)
            assert metrics.outcome == "completed"
            after = daemon.hosted_checkpoints()[0]
            assert after.last_used > before.last_used

    asyncio.run(main())


def test_inventory_report_carries_capacity_and_sketches():
    daemon = CheckpointDaemon(name="inv-host", max_concurrent_migrations=5)
    daemon.install_checkpoint("vm", fingerprint())
    report = daemon.inventory_report(sketch_k=8)
    assert report["host"] == "inv-host"
    assert report["active_sessions"] == 0
    assert report["max_concurrent_migrations"] == 5
    assert report["sketch_k"] == 8
    (entry,) = report["checkpoints"]
    assert entry["vm_id"] == "vm"
    assert entry["pages"] == N
    assert entry["resident"] is True
    assert 0 < len(entry["sketch"]) <= 8
    assert entry["sketch"] == sorted(entry["sketch"])
