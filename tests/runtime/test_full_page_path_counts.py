"""What the full-page path calls, counted — exact and timing-free.

A fully rewritten VM is the worst case (Figure 7's right edge): every
slot travels as a FULL frame.  Between the ROUND header and COMPLETE the
path makes no call per page on either end: the sink stores, references
and records a received buffer's pages a run at a time, the source
fetches page bytes a slice at a time, and a socket read costs the event
loop a future, not a Task.  The one exception is the run rule's own: a
buffer that holds fewer than ``RUN_MIN_FRAMES`` frames (the arena's
first few reads, a round's tail) is applied frame by frame — so the
sink's per-page calls are counted against exactly those frames.  A
return with half its slots rewritten at random holds to the same rule:
its round travels kind by kind, so it arrives as runs too.
"""

import asyncio
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import ZERO_HASH
from repro.core.strategies import VECYCLE
from repro.mem.pagestore import ContentAddressedStore, PageStore
from repro.obs import names
from repro.runtime import (
    CheckpointDaemon,
    MigrationSource,
    RuntimeConfig,
    SourceState,
    idle_vm_scenario,
)
from repro.runtime import sink as sink_module
from repro.runtime.frames import RUN_MIN_FRAMES, FrameCodec, PageRun
from repro.runtime.shaping import ShapedStream
from repro.runtime.source import BATCH_BYTES

PAGES = 1024  # a 4 MiB VM


def counter(name: names.CounterName, registry=None) -> float:
    return name.on(registry).value


def warm_store(content_ids: np.ndarray) -> PageStore:
    store = PageStore(cache_limit=4 * PAGES)
    for content_id in np.unique(content_ids).tolist():
        store.page_bytes(content_id)
    return store


def migrate_counted(monkeypatch, updates_percent):
    """One 4 MiB ``VECYCLE`` return with ``updates_percent`` of its slots
    rewritten at random, the calls of its round counted.

    Returns ``(metrics, calls, in_runs, short_stretches, moved, audit,
    tasks)``: ``in_runs`` and ``short_stretches`` are the frame counts of
    every :class:`PageRun` and every frame-by-frame stretch the sink
    applied; ``moved`` the change of three counters.
    """
    scenario = idle_vm_scenario(
        size_mib=4, updates_percent=updates_percent, strategy=VECYCLE, seed=5
    )
    assert scenario.num_pages == PAGES
    source_store = warm_store(scenario.current.hashes)
    dest_store = warm_store(scenario.checkpoint.hashes)

    calls = Counter()
    in_round = False

    def counted(owner, name, always=False):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if in_round or always:
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    apply_pages = sink_module._SinkSession.apply_pages
    in_runs, short_stretches = [], []

    def recording_apply(self, decoded, frame_bytes):
        calls["apply_pages"] += 1
        for run in decoded.runs:
            if isinstance(run, PageRun):
                in_runs.append(len(run.slots))
            else:
                short_stretches.append(len(run))
        return apply_pages(self, decoded, frame_bytes)

    receive_pages = CheckpointDaemon._receive_pages

    async def bracketed(self, *args, **kwargs):
        # ROUND has been read; what follows runs until the round's
        # last page is applied — COMPLETE is the next frame.
        nonlocal in_round
        in_round = True
        try:
            return await receive_pages(self, *args, **kwargs)
        finally:
            in_round = False

    tasks = []

    def task_factory(loop, coro, **kwargs):
        tasks.append(getattr(coro, "__qualname__", repr(coro)))
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def main():
        asyncio.get_running_loop().set_task_factory(task_factory)
        async with CheckpointDaemon(pagestore=dest_store) as daemon:
            daemon.install_checkpoint(scenario.vm_id, scenario.checkpoint)
            # Set-up is done: from here on, everything is counted.
            for name in ("put", "retain", "release", "put_many"):
                counted(ContentAddressedStore, name)
            counted(sink_module._SinkSession, "_set_slot")
            counted(FrameCodec, "_split_page")
            monkeypatch.setattr(
                sink_module._SinkSession, "apply_pages", recording_apply
            )
            counted(ShapedStream, "fill")
            counted(PageStore, "page_bytes", always=True)
            monkeypatch.setattr(CheckpointDaemon, "_receive_pages", bracketed)
            # Where each counter lives: the daemon's in its own source.
            home = {
                names.PAGESTORE_PAGE_EVICTIONS: None,
                names.RUNTIME_BATCH_FLUSHES: None,
                names.DAEMON_APPLY_BATCHES: daemon.telemetry.registry,
            }
            before = {name: counter(name, home[name]) for name in home}
            tasks.clear()
            source = MigrationSource(
                SourceState(
                    vm_id=scenario.vm_id,
                    hashes=scenario.current.hashes,
                    pagestore=source_store,
                ),
                VECYCLE,
                config=RuntimeConfig(io_timeout_s=5.0),
            )
            metrics = await source.migrate(daemon.host, daemon.port)
            moved = {
                name: counter(name, home[name]) - was
                for name, was in before.items()
            }
            return metrics, moved, daemon.audit_store(), list(tasks)

    metrics, moved, audit, tasks = asyncio.run(main())
    assert metrics.outcome == "completed"
    assert audit == []
    return metrics, calls, in_runs, short_stretches, moved, tasks


class TestNoCallPerPage:
    def test_a_fully_rewritten_vm_migrates_without_one(self, monkeypatch):
        metrics, calls, in_runs, short_buffers, moved, tasks = migrate_counted(
            monkeypatch, updates_percent=100
        )
        assert metrics.messages_by_type == {"full": PAGES}

        # The sink: one store call per run, and a call per page only for
        # the frames of buffers too short to hold a run.
        assert sum(in_runs) + sum(short_buffers) == PAGES
        assert all(frames < RUN_MIN_FRAMES for frames in short_buffers)
        assert sum(short_buffers) <= PAGES // 16
        for name in ("put", "retain", "_set_slot", "_split_page"):
            assert calls[name] == sum(short_buffers), (name, calls)
        # Every slot was borrowed from the checkpoint when rewritten: the
        # replaced digest's reference is the checkpoint's, and adoption
        # releases those in bulk.
        assert calls["release"] == 0
        assert calls["put_many"] == len(in_runs) <= calls["apply_pages"]
        # A buffer is decoded once per refill (plus what came in behind
        # the ROUND header before the first one).
        assert calls["apply_pages"] <= calls["fill"] + 1
        # The source: the digest pass and the encoder both fetch warm
        # pages in bulk (2 × 1,024 page_bytes calls before runs existed).
        assert calls["page_bytes"] == 0

        # A socket read is a future and a timer: the only Tasks are the
        # connect's wait_for, the accept and the daemon's handler.
        assert len(tasks) <= 3, tasks
        assert calls["fill"] > len(tasks)

        # The counters that describe the path read what they always did.
        full_frame = VECYCLE.wire.message_bytes("full")
        frames_per_batch = -(-BATCH_BYTES // full_frame)
        assert moved[names.PAGESTORE_PAGE_EVICTIONS] == 0
        assert moved[names.RUNTIME_BATCH_FLUSHES] == -(-PAGES // frames_per_batch)
        assert moved[names.DAEMON_APPLY_BATCHES] == calls["apply_pages"]

    def test_a_half_rewritten_vm_applies_in_runs_too(self, monkeypatch):
        # Rewritten slots drawn at random: in slot order, FULL and
        # CHECKSUM frames would alternate every other frame or so, and
        # every buffer would be decoded and applied frame by frame.
        # Sent kind by kind, the round is two runs however it arrives.
        metrics, calls, in_runs, short_stretches, moved, _ = migrate_counted(
            monkeypatch, updates_percent=50
        )
        assert metrics.messages_by_type == {"full": PAGES // 2, "checksum": PAGES // 2}
        assert sum(in_runs) + sum(short_stretches) == PAGES
        # A frame goes frame by frame only in a stretch too short to be a
        # run: a kind's first or last few frames, cut off by a read.
        assert all(frames < RUN_MIN_FRAMES for frames in short_stretches)
        assert sum(short_stretches) <= PAGES // 16
        assert calls["_split_page"] == sum(short_stretches)
        # A CHECKSUM frame here names its slot's own digest, so only the
        # short stretches' FULL frames assign a slot one by one.
        assert calls["_set_slot"] == calls["put"] <= sum(short_stretches)
        assert calls["release"] == 0
        assert calls["put_many"] <= len(in_runs)
        assert calls["page_bytes"] == 0
        # One batch of CHECKSUM frames, then the FULL ones a batch at a time.
        full_frame = VECYCLE.wire.message_bytes("full")
        assert moved[names.RUNTIME_BATCH_FLUSHES] == 1 + -(
            -(PAGES // 2) // -(-BATCH_BYTES // full_frame)
        )


class TestPagesForIsAPageBytesLoop:
    @given(
        limit=st.integers(2, 6),
        warm=st.lists(st.integers(1, 9), max_size=8),
        wanted=st.lists(
            st.one_of(st.integers(1, 9), st.just(int(ZERO_HASH))), max_size=12
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_same_lru_order_same_evictions(self, limit, warm, wanted):
        def outcome(fetch):
            store = PageStore(page_size=64, cache_limit=limit)
            for content_id in warm:
                store.page_bytes(content_id)
            before = counter(names.PAGESTORE_PAGE_EVICTIONS)
            pages = fetch(store)
            evicted = counter(names.PAGESTORE_PAGE_EVICTIONS) - before
            return pages, list(store._cache), evicted

        bulk = outcome(lambda store: store.pages_for(wanted))
        loop = outcome(lambda store: [store.page_bytes(cid) for cid in wanted])
        assert bulk == loop

    def test_all_resident_ids_make_no_page_bytes_call(self, monkeypatch):
        store = PageStore(page_size=64)
        ids = [3, 1, 2, 1]
        expected = [store.page_bytes(cid) for cid in ids]
        monkeypatch.setattr(
            PageStore, "page_bytes", lambda *_: pytest.fail("per-page call")
        )
        assert store.pages_for(ids) == expected
        assert list(store._cache) == [3, 2, 1]
