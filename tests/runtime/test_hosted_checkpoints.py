"""Daemon checkpoint inventory: exactly the hosted map, served from memory."""

import os
from types import SimpleNamespace

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.mem.pagestore import PageStore
from repro.orchestrator.inventory import digest_sketch
from repro.runtime import CheckpointDaemon
from repro.storage.repository import CheckpointManifest, CheckpointRepository

N = 64


def fingerprint(seed=3, distinct=32):
    rng = np.random.default_rng(seed)
    return Fingerprint(
        hashes=rng.integers(1, distinct + 1, size=N, dtype=np.uint64),
        timestamp=42.0,
    )


def test_live_only_checkpoint_is_resident():
    daemon = CheckpointDaemon()
    daemon.install_checkpoint("vm-live", fingerprint())
    report = daemon.inventory_report()
    assert report["checkpoints"] == {
        "vm-live": digest_sketch(daemon.checkpoints["vm-live"].distinct)
    }


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
    report = daemon.inventory_report()
    assert list(report["checkpoints"]) == sorted(daemon.checkpoints) == ["vm-a", "vm-b"]
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
        first = daemon.inventory_report()
        assert daemon.inventory_report() == first
    assert touched == []
    daemon.repository = repository
    assert first["checkpoints"] == {
        f"vm-{index}": digest_sketch(daemon.checkpoints[f"vm-{index}"].slot_digests)
        for index in range(4)
    }
    repository.close()


def test_inventory_report_carries_capacity_and_sketches():
    daemon = CheckpointDaemon(name="inv-host")
    daemon.install_checkpoint("vm", fingerprint())
    # The load placement reads: sessions still in progress, not the
    # completed ones kept for RESULT replay.
    for session_id, completed in (("live", False), ("done", True)):
        daemon._sessions[session_id] = SimpleNamespace(completed=completed)
    report = daemon.inventory_report()
    assert report == {
        "active_sessions": 1,
        "checkpoints": {"vm": digest_sketch(daemon.checkpoints["vm"].distinct)},
    }
    (sketch,) = report["checkpoints"].values()
    assert 0 < len(sketch) <= 32 and sketch == sorted(sketch)
