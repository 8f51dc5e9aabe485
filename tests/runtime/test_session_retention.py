"""Regression tests for the daemon's session-retention soft cap.

The old pruning used ``popitem(last=False)``: strictly oldest-first,
which under ≥64 concurrent migrations evicted *in-progress* sessions
and silently broke the documented reconnect/resume guarantee.  The
fixed policy retires only completed sessions, and when every retained
session is live it grows past the soft cap with a warning instead.
"""

import asyncio
import logging

import numpy as np

from repro.core.checksum import MD5
from repro.core.strategies import VECYCLE
from repro.core.transfer import Method
from repro.mem.pagestore import PageStore
from repro.obs.metrics import get_registry
from repro.runtime import MigrationSource, RetryPolicy, RuntimeConfig, SourceState
from repro.runtime.daemon import _MAX_RETAINED_SESSIONS, CheckpointDaemon
from repro.runtime.sink import _SinkSession
from repro.storage.repository import CrashPoint


def make_session(daemon, session_id, completed):
    """Fabricate a retained session directly in the daemon's map."""
    session = _SinkSession(
        session_id=session_id,
        vm_id=f"vm-{session_id}",
        num_pages=4,
        method=Method.FULL,
        algorithm=MD5,
        store=daemon.store,
        preload=None,
    )
    session.completed = completed
    if completed:
        session.result = {"ok": True}
    daemon._sessions[session_id] = session
    return session


class TestSessionRetention:
    def test_completed_sessions_evicted_before_any_live_one(self):
        daemon = CheckpointDaemon()
        live = [
            make_session(daemon, f"live-{i}", completed=False)
            for i in range(_MAX_RETAINED_SESSIONS)
        ]
        # These completed ones push the map past the cap; they (and only
        # they) must be the victims even though every live session is
        # older insertion-order-wise.
        for i in range(8):
            make_session(daemon, f"done-{i}", completed=True)
        daemon._prune_sessions()
        assert len(daemon._sessions) == _MAX_RETAINED_SESSIONS
        for session in live:
            assert session.session_id in daemon._sessions

    def test_oldest_completed_evicted_first(self):
        daemon = CheckpointDaemon()
        for i in range(_MAX_RETAINED_SESSIONS + 2):
            make_session(daemon, f"done-{i}", completed=True)
        daemon._prune_sessions()
        assert "done-0" not in daemon._sessions
        assert "done-1" not in daemon._sessions
        assert f"done-{_MAX_RETAINED_SESSIONS + 1}" in daemon._sessions

    def test_all_live_grows_past_cap_with_warning(self):
        daemon = CheckpointDaemon()
        for i in range(_MAX_RETAINED_SESSIONS + 3):
            make_session(daemon, f"live-{i}", completed=False)

        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("repro.runtime.daemon")
        logger.addHandler(handler)
        old_level = logger.level
        logger.setLevel(logging.WARNING)
        try:
            daemon._prune_sessions()
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)

        # Nobody was evicted: resume beats the soft cap.
        assert len(daemon._sessions) == _MAX_RETAINED_SESSIONS + 3
        assert any(
            record.levelno == logging.WARNING
            and "soft cap" in record.getMessage()
            for record in records
        )
        overflow = get_registry().gauge("daemon.sessions.live_overflow")
        assert overflow.value == 3

    def test_evicted_session_releases_content_store_refs(self):
        daemon = CheckpointDaemon()
        page = b"p" * 4096
        digest = MD5.digest(page)
        victim = make_session(daemon, "victim", completed=True)
        daemon.store.put(digest, page)
        for slot in range(4):
            victim._set_slot(slot, digest)
        assert daemon.store.refcount(digest) == 4
        for i in range(_MAX_RETAINED_SESSIONS):
            make_session(daemon, f"live-{i}", completed=False)
        daemon._prune_sessions()
        assert "victim" not in daemon._sessions
        # The retired session gave back every per-slot reference, so the
        # content store reclaimed the bytes (the leak this PR fixes).
        assert daemon.store.refcount(digest) == 0
        assert daemon.store.stored_bytes == 0


PAGES = 1024  # a 4 MiB VM
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)


def rewritten_image(visit):
    """Every page new, every page distinct — nothing of an earlier visit."""
    return np.arange(1 + visit * PAGES, 1 + (visit + 1) * PAGES, dtype=np.uint64)


def source_for(hashes, pagestore):
    return MigrationSource(SourceState("vm", hashes, pagestore), VECYCLE, config=FAST)


class TestCompletedSessionHandsOver:
    """A verified COMPLETE gives the session's slots and references to the
    checkpoint it became; the retained session only replays its RESULT."""

    def test_rewritten_returns_keep_one_image_resident(self):
        async def main():
            pagestore = PageStore(cache_limit=8 * PAGES)
            replays = get_registry().counter("daemon.result_replays")
            async with CheckpointDaemon(pagestore=pagestore) as daemon:
                for visit in range(6):
                    hashes = rewritten_image(visit)
                    source = source_for(hashes, pagestore)
                    metrics = await source.migrate(daemon.host, daemon.port)
                    assert metrics.outcome == "completed"
                    # Before the hand-over this read 4, 8, 12, … MiB: each
                    # completed session pinned an image no checkpoint
                    # references, and the audit counted it as an owner.
                    assert daemon.store.stored_bytes == PAGES * pagestore.page_size
                    assert len(daemon.store) == PAGES
                    assert daemon.audit_store() == []
                    session = daemon._sessions[source.session_id]
                    assert session.completed and session.slot_digests == []
                    assert session.release_refs() == 0
                    assert daemon.checkpoints["vm"].slot_digests == (
                        pagestore.digests_for(hashes)
                    )
                    # The session id still earns the same RESULT.
                    replayed_before = replays.value
                    again = await source.migrate(daemon.host, daemon.port)
                    assert replays.value == replayed_before + 1
                    assert again.payload_bytes == 0
                    assert again.sink_stats == metrics.sink_stats
                    assert source.result_generation == visit + 1
                    assert daemon.store.stored_bytes == PAGES * pagestore.page_size

        asyncio.run(main())

    def test_failed_commit_leaves_the_session_owning_its_references(self, tmp_path):
        seen = []

        async def main():
            pagestore = PageStore(cache_limit=4 * PAGES)
            async with CheckpointDaemon(
                pagestore=pagestore, state_dir=tmp_path
            ) as daemon:
                first, second = rewritten_image(0), rewritten_image(1)
                await source_for(first, pagestore).migrate(daemon.host, daemon.port)
                source = source_for(second, pagestore)

                def disk_full(point):
                    # Inside commit_checkpoint, before the manifest is
                    # written; the connection handler treats an OSError
                    # as a dropped link and keeps the session.
                    if point == CrashPoint.SEGMENTS_SYNCED and not seen:
                        seen.append(daemon._sessions[source.session_id])
                        raise OSError("injected: no space left on device")

                daemon.repository.fault_hook = disk_full
                attempt = asyncio.ensure_future(
                    source.migrate(daemon.host, daemon.port)
                )
                while not seen and not attempt.done():
                    await asyncio.sleep(0)
                (session,) = seen
                # The adoption raised: nothing moved.  The session is
                # live and owns one reference per slot of its image; the
                # hosted checkpoint is still the first one.
                assert not session.completed and not session._refs_released
                assert session.slot_digests == pagestore.digests_for(second)
                assert daemon.checkpoints["vm"].slot_digests == (
                    pagestore.digests_for(first)
                )
                assert daemon.checkpoints["vm"].generation == 1
                assert daemon._generations["vm"] == 1
                assert daemon.audit_store() == []
                # The reconnect finds that session, sends COMPLETE again,
                # and this time the hand-over happens.
                metrics = await attempt
                assert metrics.outcome == "completed" and metrics.retries == 1
                assert session.completed and session.slot_digests == []
                assert daemon.checkpoints["vm"].slot_digests == (
                    pagestore.digests_for(second)
                )
                assert source.result_generation == 2
                assert daemon.audit_store() == []
                assert len(daemon.store) == PAGES

        asyncio.run(main())
