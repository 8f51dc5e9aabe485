"""Dropping a checkpoint must reclaim its bytes on disk, not only in memory.

A checkpoint the host stops keeping (replaced, evicted or dropped) used
to leave its pages in the content store and its records live in the
repository's packs, so a consolidation host's footprint grew without
bound.  This test drops one of two repository-backed checkpoints and
checks both the resident and the durable pool give back exactly its
exclusive page.
"""

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.mem.pagestore import PageStore
from repro.runtime.daemon import CheckpointDaemon
from repro.storage.repository import CheckpointRepository


def fingerprint(values):
    return Fingerprint(hashes=np.asarray(values, dtype=np.uint64))


class TestNetZeroGrowth:
    def test_repository_backed_reclaim_frees_segments_too(self, tmp_path):
        daemon = CheckpointDaemon(
            pagestore=PageStore(page_size=64), state_dir=tmp_path
        )
        daemon.install_checkpoint("old", fingerprint([1, 2]))
        daemon.install_checkpoint("new", fingerprint([2, 3]))
        exclusive = daemon.checkpoints["old"].slot_digests[0]
        before = daemon.repository.pack_stats()

        freed = daemon.drop_checkpoint("old")

        assert set(daemon.checkpoints) == {"new"}
        # The exclusive record is released on disk, not just in memory:
        # resident and durable payload bytes are both reported, the
        # record is gone from the index, and its bytes are dead in the
        # pack (64 of payload + 30 of header and digest) until gc.
        assert freed == 2 * 64
        assert daemon.store.stored_bytes == 2 * 64  # pages 2 and 3
        assert not daemon.repository.has_page(exclusive)
        after = daemon.repository.pack_stats()
        assert after["live_bytes"] == before["live_bytes"] - 94
        assert after["dead_bytes"] == before["dead_bytes"] + 94
        daemon.repository.close()
        reopened = CheckpointRepository(tmp_path)
        assert [m.vm_id for m in reopened.recover().checkpoints] == ["new"]
        assert reopened.gc() == 64
        assert reopened.stored_bytes == after["live_bytes"]
