"""Batch write-behind: one thread hop and one barrier per backlog.

The durable sink hands whatever is queued to
``CheckpointRepository.put_pages`` in one ``to_thread`` call and
issues the data barrier in the same hop.  These tests pin what that
batching must not change: where a fault surfaces, what a cancelled
batch leaves behind, that a ``flush_sync`` overtaking the writer thread
is harmless — and what it costs: a barrier a batch, and system calls
per batch and per pack, never per page.
"""

import asyncio
import gc
import os
import sys
import threading

import numpy as np
import pytest

from repro.core.checksum import MD5
from repro.mem.pagestore import PageStore
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.runtime import CheckpointDaemon
from repro.runtime.persist import _WriteBehind
from repro.storage.repository import CheckpointRepository, CrashPoint
from tests.runtime.test_daemon_persistence import migrate


class KillNine(BaseException):
    """Simulated hard kill inside the writer."""


def items(count):
    pages = [bytes([i]) * 64 for i in range(count)]
    return [(MD5.digest(page), page) for page in pages]


def temp_files(root):
    return list(root.rglob(".tmp-*"))


def counter(name):
    return get_registry().counter(name).value


async def join_writer_threads():
    """Wait for threads ``to_thread`` started, abandoned ones included."""
    await asyncio.wait_for(
        asyncio.get_running_loop().shutdown_default_executor(), timeout=20
    )


def fail_once(repo):
    """Arm ``repo`` to die at its next ``segment.written``."""
    reached = []

    def hook(point):
        if point == CrashPoint.SEGMENT_WRITTEN:
            reached.append(point)
            if len(reached) == 1:
                raise KillNine(point)

    repo.fault_hook = hook
    return reached


class TestFaultInsideABatch:
    def assert_fault_outcome(self, repo, tmp_path, batch, reached):
        # The batch is all or nothing: the fault (after the write, before
        # the index update) leaves none of it indexed, nothing committed,
        # nothing left half-written, and a re-put writes it once more.
        assert len(reached) == 1
        assert [repo.has_page(d) for d, _ in batch] == [False] * 6
        assert not list(repo.manifests_dir.iterdir())
        assert repo.put_pages(batch) == 6
        assert all(repo.get_page(d) == page for d, page in batch)
        CheckpointRepository(tmp_path).recover()
        assert not temp_files(tmp_path)

    def test_drain_reraises_the_first_error_once(self, tmp_path):
        repo = CheckpointRepository(tmp_path)
        batch = items(6)
        reached = fail_once(repo)

        async def scenario():
            writer = _WriteBehind(repo, (get_registry(),))
            before = counter("daemon.writebehind.batches")
            writer.defer(batch)
            with pytest.raises(KillNine):
                await writer.drain()
            # One backlog, one hop — and the error is not raised twice.
            assert counter("daemon.writebehind.batches") == before + 1
            await writer.drain()
            await writer.close()

        asyncio.run(scenario())
        self.assert_fault_outcome(repo, tmp_path, batch, reached)

    def test_flush_sync_reraises_the_first_error(self, tmp_path):
        repo = CheckpointRepository(tmp_path)
        batch = items(6)
        reached = fail_once(repo)
        writer = _WriteBehind(repo, (get_registry(),))
        writer.defer(batch)  # no loop: queued for flush_sync
        with pytest.raises(KillNine):
            writer.flush_sync()
        assert writer.idle and writer.pending_bytes == 0
        self.assert_fault_outcome(repo, tmp_path, batch, reached)


class TestCancelledBatch:
    def test_batch_requeued_in_order_and_reput_by_close(self, tmp_path):
        repo = CheckpointRepository(tmp_path)
        batch = items(8)
        entered, gate = threading.Event(), threading.Event()

        def hold_the_writer_thread(point):
            if threading.current_thread() is not threading.main_thread():
                entered.set()
                assert gate.wait(timeout=20)

        repo.fault_hook = hold_the_writer_thread

        async def scenario():
            writer = _WriteBehind(repo, (get_registry(),))
            writer.defer(batch[:5])
            while not entered.is_set():
                await asyncio.sleep(0.001)
            writer.defer(batch[5:])  # queued behind the batch
            task = writer._task
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert list(writer._queue) == batch
            assert writer.pending_bytes == sum(len(p) for _, p in batch)
            # The abandoned thread still sits inside its append: written,
            # not yet indexed, and holding the repository's lock — which
            # close()'s flush has to wait for, so let it go shortly.
            assert not any(repo.has_page(d) for d, _ in batch)
            threading.Timer(0.05, gate.set).start()
            await writer.close()
            assert writer.idle and writer.pending_bytes == 0
            assert all(repo.has_page(d) for d, _ in batch)
            await join_writer_threads()

        try:
            asyncio.run(asyncio.wait_for(scenario(), timeout=30))
        finally:
            gate.set()
        assert all(repo.get_page(d) == p for d, p in batch)
        # The thread's five and the flush's three: each record once.
        assert repo.stored_bytes == 8 * (14 + 16 + 64)
        reopened = CheckpointRepository(tmp_path)
        assert reopened.recover().orphan_segments == 8
        assert not temp_files(tmp_path)
        assert reopened.verify().ok


class TestThrottle:
    def test_a_stall_is_recorded_in_every_registry(self, tmp_path):
        repo = CheckpointRepository(tmp_path)
        batch = items(4)
        gate = threading.Event()
        repo.fault_hook = lambda point: gate.wait(timeout=20)
        host = MetricsRegistry()

        async def scenario():
            writer = _WriteBehind(
                repo, (get_registry(), host), max_pending_bytes=64
            )
            writer.defer(batch[:2])
            while not writer._inflight:  # the held thread owns batch one
                await asyncio.sleep(0.001)
            writer.defer(batch[2:])  # 128 bytes behind it: over the bound
            asyncio.get_running_loop().call_later(0.02, gate.set)
            await writer.throttle()
            await writer.close()

        stalls_before = counter("pipeline.stall.writebehind")
        try:
            asyncio.run(asyncio.wait_for(scenario(), timeout=30))
        finally:
            gate.set()
        stalled = host.counter("pipeline.stall.writebehind").value
        assert stalled > 0.01
        assert counter("pipeline.stall.writebehind") - stalls_before == stalled
        histogram = host.snapshot()["pipeline.stage_stall_seconds"]
        assert histogram["total"] == 1 and histogram["sum"] == stalled
        assert all(repo.has_page(digest) for digest, _ in batch)


def fresh_image(pages, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 2**62, size=pages, dtype=np.uint64)


class CountedCalls:
    """Count calls of ``os`` functions on paths under ``root`` (and every
    ``os.fsync``) while the patches are in place."""

    NAMES = ("stat", "unlink", "replace", "open", "fsync")

    def __init__(self, monkeypatch, root):
        self.root = str(root)
        self.calls = dict.fromkeys(self.NAMES + ("exists",), 0)
        for name in self.NAMES:
            monkeypatch.setattr(os, name, self._counting(name, getattr(os, name)))
        monkeypatch.setattr(
            os.path, "exists", self._counting("exists", os.path.exists)
        )

    def _counting(self, name, real):
        def counted(target, *args, **kwargs):
            if name == "fsync" or str(target).startswith(self.root):
                self.calls[name] += 1
            return real(target, *args, **kwargs)

        return counted


class TestDurableMigration:
    def test_hops_and_barriers_are_per_backlog(
        self, tmp_path, monkeypatch
    ):
        pages = 4096
        hashes = fresh_image(pages, seed=13)
        new_records = len(set(hashes.tolist()))

        async def scenario():
            pagestore = PageStore(cache_limit=2 * pages)
            async with CheckpointDaemon(
                pagestore=pagestore, state_dir=tmp_path
            ) as daemon:
                before = {
                    name: counter(name)
                    for name in ("daemon.writebehind.batches", "repo.fsync_batched")
                }
                gc.collect()
                calls = CountedCalls(monkeypatch, tmp_path).calls
                metrics, _ = await migrate(daemon, hashes, pagestore)
                monkeypatch.undo()
                assert metrics.outcome == "completed"
                moved = {name: counter(name) - was for name, was in before.items()}
                return moved, calls, daemon.telemetry.snapshot().instruments

        moved, calls, telemetry = asyncio.run(scenario())
        batches = moved["daemon.writebehind.batches"]
        assert 1 <= batches <= pages // 8
        # The sink-disk-bound signal is visible per host, not only in
        # the process registry.
        assert telemetry["daemon.writebehind.batches"]["value"] == batches
        # Every new record was made durable by a barrier it shared.
        assert moved["repo.fsync_batched"] == new_records
        # One barrier a batch (the pack), plus once each: the segments
        # directory for the new pack, the manifest and the session file
        # and their two directories, and slack for the commit's own.
        assert batches <= calls["fsync"] <= batches + 8
        # Nothing is paid per page: no stat, no unlink, and opens and
        # renames only for the pack, the manifest, the session file and
        # the directories being fsynced.
        assert calls["stat"] == calls["exists"] == calls["unlink"] == 0
        assert calls["replace"] == 2
        assert calls["open"] <= 8
        (pack,) = tmp_path.glob("segments/*.pack")
        assert pack.stat().st_size == new_records * (14 + 16 + 4096)

    def test_flush_sync_overtaking_an_inflight_batch(self, tmp_path):
        """The race PR 12 documented, provoked on purpose.

        The process runs on every CPU it is allowed (the benchmark pins
        itself to one to hide this), the interpreter switches threads
        far more often than usual, and a second task calls
        ``flush_sync()`` whenever the writer thread holds a batch, so
        both write the same segments at the same time.
        """
        pages = 2048
        hashes = fresh_image(pages, seed=17)
        pagestore = PageStore(cache_limit=2 * pages)
        digests = [pagestore.digest_for(int(c)) for c in hashes]
        overtaken = 0

        async def overtake(writer, done):
            nonlocal overtaken
            while not done.is_set():
                if writer._inflight:
                    writer.flush_sync()
                    overtaken += 1
                await asyncio.sleep(0)

        async def scenario():
            async with CheckpointDaemon(
                pagestore=pagestore, state_dir=tmp_path
            ) as daemon:
                done = asyncio.Event()
                poker = asyncio.create_task(overtake(daemon._persist, done))
                try:
                    metrics, _ = await migrate(daemon, hashes, pagestore)
                finally:
                    done.set()
                    await poker
                assert metrics.outcome == "completed"
                assert all(daemon.repository.has_page(d) for d in digests)
                assert daemon.audit_store() == []
            await join_writer_threads()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert overtaken >= 1
        reopened = CheckpointRepository(tmp_path)
        report = reopened.recover()
        assert [m.slot_digests for m in report.checkpoints] == [digests]
        assert not temp_files(tmp_path)
        assert reopened.verify().ok
