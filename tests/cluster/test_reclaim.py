"""Retention on a live daemon must actually reclaim content-store bytes.

The leak this PR fixes: checkpoints dropped by a retention policy (or
replaced, or LRU-evicted) kept their pages in the host-wide
:class:`~repro.mem.pagestore.ContentAddressedStore` forever — the VDI
consolidation host's memory grew monotonically.  These tests replay a
multi-day checkpoint churn and assert net-zero growth: after retention
runs, ``stored_bytes`` equals exactly what the *live* checkpoints
reference.
"""

import numpy as np

from repro.cluster.gc import TtlRetention, reclaim_hosted
from repro.core.fingerprint import Fingerprint
from repro.mem.pagestore import PageStore
from repro.runtime.daemon import CheckpointDaemon
from repro.storage.repository import CheckpointRepository

HOUR = 3600.0
DAY = 24 * HOUR


def fingerprint(values, timestamp):
    return Fingerprint(
        hashes=np.asarray(values, dtype=np.uint64), timestamp=timestamp
    )


def live_bytes(daemon):
    """Bytes the currently hosted checkpoints actually reference."""
    digests = set()
    for hosted in daemon.checkpoints.values():
        digests.update(d for d in hosted.slot_digests if d is not None)
    return sum(len(daemon.store.get(d)) for d in digests)


class TestReclaimHosted:
    def test_rejected_checkpoints_dropped_and_bytes_freed(self):
        daemon = CheckpointDaemon(pagestore=PageStore(page_size=64))
        daemon.install_checkpoint("old", fingerprint([1, 2], timestamp=0.0))
        daemon.install_checkpoint(
            "new", fingerprint([2, 3], timestamp=2 * DAY)
        )
        report = reclaim_hosted(
            daemon, TtlRetention(ttl_s=DAY), now_s=2 * DAY + HOUR
        )
        assert report.evicted == ["old"]
        assert report.bytes_reclaimed == 64  # page 1 was "old"-exclusive
        assert "old" not in daemon.checkpoints
        # Page 2 is still referenced by "new" and survives.
        assert daemon.store.stored_bytes == 2 * 64

    def test_report_str_mentions_bytes_and_count(self):
        daemon = CheckpointDaemon(pagestore=PageStore(page_size=64))
        daemon.install_checkpoint("vm", fingerprint([7], timestamp=0.0))
        report = reclaim_hosted(daemon, TtlRetention(ttl_s=1.0), now_s=DAY)
        assert "64 bytes" in str(report)
        assert "1 checkpoint(s)" in str(report)


class TestNetZeroGrowth:
    def test_vdi_churn_replay_shows_no_leak(self):
        """Five days of per-day checkpoints; retention keeps one day."""
        rng = np.random.default_rng(11)
        daemon = CheckpointDaemon(pagestore=PageStore(page_size=64))
        policy = TtlRetention(ttl_s=DAY)
        for day in range(5):
            for desktop in range(4):
                # Each desktop's image drifts day over day but shares
                # pages with its previous checkpoint and with peers.
                values = rng.integers(1, 40, size=16, dtype=np.uint64)
                daemon.install_checkpoint(
                    f"desktop-{desktop}",
                    fingerprint(values, timestamp=day * DAY),
                )
            reclaim_hosted(daemon, policy, now_s=day * DAY + HOUR)
            # Net-zero growth: the content store holds exactly the bytes
            # the surviving checkpoints reference — nothing leaked from
            # replaced or retention-dropped generations.
            assert daemon.store.stored_bytes == live_bytes(daemon)
        assert set(daemon.checkpoints) == {f"desktop-{i}" for i in range(4)}

    def test_dropping_every_checkpoint_empties_the_store(self):
        daemon = CheckpointDaemon(pagestore=PageStore(page_size=64))
        for index in range(3):
            daemon.install_checkpoint(
                f"vm-{index}",
                fingerprint([index, index + 1, 50], timestamp=0.0),
            )
        reclaim_hosted(daemon, TtlRetention(ttl_s=1.0), now_s=DAY)
        assert daemon.checkpoints == {}
        assert daemon.store.stored_bytes == 0
        assert len(daemon.store) == 0

    def test_repository_backed_reclaim_frees_segments_too(self, tmp_path):
        daemon = CheckpointDaemon(
            pagestore=PageStore(page_size=64), state_dir=tmp_path
        )
        daemon.install_checkpoint("old", fingerprint([1, 2], timestamp=0.0))
        daemon.install_checkpoint(
            "new", fingerprint([2, 3], timestamp=2 * DAY)
        )
        exclusive = daemon.checkpoints["old"].slot_digests[0]
        before = daemon.repository.pack_stats()
        report = reclaim_hosted(
            daemon, TtlRetention(ttl_s=DAY), now_s=2 * DAY + HOUR
        )
        assert report.evicted == ["old"]
        # The exclusive record is released on disk, not just in memory:
        # resident and durable payload bytes are both reported, the
        # record is gone from the index, and its bytes are dead in the
        # pack (64 of payload + 30 of header and digest) until gc.
        assert report.bytes_reclaimed == 2 * 64
        assert not daemon.repository.has_page(exclusive)
        after = daemon.repository.pack_stats()
        assert after["live_bytes"] == before["live_bytes"] - 94
        assert after["dead_bytes"] == before["dead_bytes"] + 94
        daemon.repository.close()
        reopened = CheckpointRepository(tmp_path)
        assert [m.vm_id for m in reopened.recover().checkpoints] == ["new"]
        assert reopened.gc() == 64
        assert reopened.stored_bytes == after["live_bytes"]
