"""Daemon checkpoint inventory: exactly the hosted map, served from memory."""

import asyncio
import os

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
    assert info.pages == N
    assert info.unique_pages == len(np.unique(fp.hashes))
    assert info.stored_bytes == info.unique_pages * daemon.pagestore.page_size
    assert info.last_used == info.timestamp
    assert list(info.sketch) == digest_sketch(daemon.checkpoints["vm-live"].distinct)


def test_inventory_lists_exactly_the_hosted_map(tmp_path):
    daemon = CheckpointDaemon(state_dir=tmp_path)
    daemon.install_checkpoint("vm-b", fingerprint(seed=1))
    daemon.install_checkpoint("vm-a", fingerprint(seed=2))
    # A second repository handle commits a checkpoint the daemon never
    # adopted: no migration to this daemon can recycle it, so it is not
    # part of the inventory.
    other = CheckpointRepository(tmp_path)
    store = PageStore()
    digests = store.digests_for(np.array([100, 101, 102], dtype=np.uint64))
    other.put_pages(
        (digest, store.page_bytes(cid)) for digest, cid in zip(digests, (100, 101, 102))
    )
    other.commit_checkpoint(CheckpointManifest(vm_id="vm-cold", slot_digests=digests))
    other.close()
    infos = daemon.hosted_checkpoints()
    assert [info.vm_id for info in infos] == sorted(daemon.checkpoints) == ["vm-a", "vm-b"]
    for info in infos:
        hosted = daemon.checkpoints[info.vm_id]
        # Every record is on disk, so unique pages × page size is what
        # the durable records hold.
        assert info.stored_bytes == len(hosted.distinct) * store.page_size
    report = daemon.inventory_report()
    assert [entry["vm_id"] for entry in report["checkpoints"]] == ["vm-a", "vm-b"]
    daemon.repository.close()


def test_durable_heartbeat_reads_no_manifest_and_no_pack(tmp_path, monkeypatch):
    daemon = CheckpointDaemon(state_dir=tmp_path)
    for index in range(4):
        daemon.install_checkpoint(f"vm-{index}", fingerprint(seed=index))
    repository = daemon.repository
    touched = []

    class Tripwire:
        def __getattr__(self, name):
            touched.append(name)
            return getattr(repository, name)

    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"a heartbeat called {what}")
        return call

    daemon.repository = Tripwire()
    with monkeypatch.context() as patch:
        patch.setattr(CheckpointManifest, "from_json", refuse("from_json"))
        patch.setattr(os, "pread", refuse("os.pread"))
        patch.setattr(os, "listdir", refuse("os.listdir"))
        patch.setattr(os, "scandir", refuse("os.scandir"))
        first = daemon.inventory_report(sketch_k=8)
        assert daemon.inventory_report(sketch_k=8) == first
    assert touched == []
    daemon.repository = repository
    assert [entry["vm_id"] for entry in first["checkpoints"]] == [
        f"vm-{index}" for index in range(4)
    ]
    for entry in first["checkpoints"]:
        assert entry["sketch"] == digest_sketch(
            daemon.checkpoints[entry["vm_id"]].slot_digests, k=8
        )
    repository.close()


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
    assert "resident" not in entry
    assert 0 < len(entry["sketch"]) <= 8
    assert entry["sketch"] == sorted(entry["sketch"])
