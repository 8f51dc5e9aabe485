"""The sink applies page frames a buffer at a time; what a peer can
observe must be what it observed when they were applied one by one.

A raw client built from :class:`FrameCodec` writes a whole round in one
piece, so every frame of interest sits *inside* a decoded batch.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE, VECYCLE_DEDUP
from repro.mem.pagestore import PageStore
from repro.runtime import (
    CheckpointDaemon,
    FrameCodec,
    MigrationMetrics,
    MigrationSource,
    RetryPolicy,
    RoundMetrics,
    RuntimeConfig,
    SourceState,
)
from repro.runtime import sink as sink_module
from repro.runtime.faults import FaultInjector
from repro.runtime.frames import (
    FRAME_NAMES,
    TYPE_ANNOUNCE,
    TYPE_ERROR,
    TYPE_READY,
)
from repro.runtime.shaping import ShapedStream

N = 300
SESSION = "vm-raw-session"


def hashes_for(count: int, seed: int = 21) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(1, 2**62, size=count, dtype=np.uint64)


def hello(codec: FrameCodec, strategy, num_pages: int) -> bytes:
    return codec.encode_hello({
        "session": SESSION,
        "vm_id": "vm",
        "num_pages": num_pages,
        "mode": strategy.method.value,
        "page_size": codec.page_size,
        "digest_size": codec.digest_size,
        "algorithm": strategy.checksum.name,
    })


async def open_session(daemon, codec, strategy, num_pages):
    """Connect, say HELLO, swallow the announce; returns the READY too."""
    reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
    writer.write(hello(codec, strategy, num_pages))
    await writer.drain()
    ready = await codec.read_frame(reader.readexactly)
    assert ready.type == TYPE_READY
    if ready.announce_follows:
        announce = await codec.read_frame(reader.readexactly)
        assert announce.type == TYPE_ANNOUNCE
    return reader, writer, ready


def checksum_round(codec, store, hashes) -> list:
    """One checksum frame per slot: an idle VM's whole first round."""
    return [
        codec.encode_page_checksum(slot, store.digest_for(int(cid)))
        for slot, cid in enumerate(hashes)
    ]


class TestInjectedAbortLandsOnTheExactFrame:
    @pytest.mark.parametrize("after", [0, 1, 17, 100, N])
    def test_abort_after_exactly_n_applied_frames(self, after):
        store = PageStore()
        hashes = hashes_for(N)
        codec = FrameCodec(VECYCLE.wire)
        frames = checksum_round(codec, store, hashes)

        async def main():
            async with CheckpointDaemon(pagestore=store) as daemon:
                daemon.install_checkpoint("vm", Fingerprint(hashes=hashes))
                daemon.faults = FaultInjector(after_messages=after, times=1)
                reader, writer, _ = await open_session(daemon, codec, VECYCLE, N)
                # The whole round in one write: the abort point is mid-batch.
                writer.write(codec.encode_round(1, N) + b"".join(frames))
                try:
                    await writer.drain()
                    assert await reader.read() == b""
                except ConnectionError:
                    pass
                writer.close()
                session = daemon._sessions[SESSION]
                applied = session.total_applied
                in_place = session.reused_in_place
                reader, writer, ready = await open_session(
                    daemon, codec, VECYCLE, N
                )
                writer.close()
                return applied, in_place, ready

        applied, in_place, ready = asyncio.run(main())
        assert applied == max(after, 1)
        assert in_place == applied
        assert (ready.round_no, ready.applied) == (1, applied)
        assert not ready.completed


class MidBatchCase:
    """``good`` valid frames, then ``bad``, then more valid frames."""

    def __init__(self, name, strategy, good, bad, code, preload=True):
        self.name, self.strategy = name, strategy
        self.good, self.bad, self.code, self.preload = good, bad, code, preload


def mid_batch_cases():
    store = PageStore()
    hashes = hashes_for(N)
    codec = FrameCodec(VECYCLE.wire)
    idle = checksum_round(codec, store, hashes)
    fresh = [
        codec.encode_page_full(
            slot, store.digest_for(int(cid)), store.page_bytes(int(cid))
        )
        for slot, cid in enumerate(hashes[:40])
    ]
    return [
        MidBatchCase(
            "bad-slot", VECYCLE, idle[:25],
            codec.encode_page_checksum(N, store.digest_for(int(hashes[0]))),
            "bad-slot",
        ),
        MidBatchCase(
            "absent-checksum", VECYCLE, idle[:25],
            codec.encode_page_checksum(25, b"\xee" * codec.digest_size),
            "missing-content",
        ),
        MidBatchCase(
            "forward-ref", VECYCLE_DEDUP, fresh[:25],
            codec.encode_page_ref(25, 200), "bad-ref", preload=False,
        ),
        MidBatchCase(
            "control-frame", VECYCLE, idle[:25], codec.encode_round(2, 5),
            "bad-frame",
        ),
        MidBatchCase(
            "unknown-tag", VECYCLE, idle[:25], b"\x7f" * 64, "desync",
        ),
    ]


class TestViolationInsideABatch:
    @pytest.mark.parametrize("case", mid_batch_cases(), ids=lambda c: c.name)
    def test_same_error_code_and_the_frames_before_it_count(self, case):
        store = PageStore()
        hashes = hashes_for(N)
        codec = FrameCodec(case.strategy.wire)
        trailing = checksum_round(codec, store, hashes)[30:60]
        retired = []

        async def main():
            async with CheckpointDaemon(pagestore=store) as daemon:
                if case.preload:
                    daemon.install_checkpoint("vm", Fingerprint(hashes=hashes))
                retire = daemon._retire_session

                def recording_retire(session):
                    retired.append((
                        session.total_applied, session.applied_in_round,
                        session.pages_received, session.rx_payload_bytes,
                        session.reused_in_place + session.reused_from_store,
                    ))
                    retire(session)

                daemon._retire_session = recording_retire
                reader, writer, _ = await open_session(
                    daemon, codec, case.strategy, N
                )
                writer.write(
                    codec.encode_round(1, N)
                    + b"".join(case.good) + case.bad + b"".join(trailing)
                )
                await writer.drain()
                error = await codec.read_frame(reader.readexactly)
                writer.close()
                return error, dict(daemon._sessions), daemon.audit_store()

        error, sessions, audit = asyncio.run(main())
        assert error.type == TYPE_ERROR
        assert error.body["code"] == case.code
        good = len(case.good)
        reused = good if case.preload else 0
        assert retired == [
            (good, good, good, sum(map(len, case.good)), reused)
        ]
        assert sessions == {}
        assert audit == []


def reference_accounting(frames, attempts):
    """The per-frame accounting the source did before it sent batches.

    ``frames`` is the round as ``(kind name, wire bytes)``; ``attempts``
    lists ``(skip, stop, finished)``: which message indices an attempt
    encoded and whether it got to the end of the round.
    """
    bytes_by_type, messages_by_type = {}, {}
    retransmitted = counted = 0
    rounds = []
    for skip, stop, finished in attempts:
        messages = sent = 0
        for index in range(skip, stop):
            kind, size = frames[index]
            if index < counted:
                retransmitted += size
            else:
                bytes_by_type[kind] = bytes_by_type.get(kind, 0) + size
                messages_by_type[kind] = messages_by_type.get(kind, 0) + 1
                messages += 1
                sent += size
                counted = index + 1
        if finished and messages:
            rounds.append((messages, sent))
    return bytes_by_type, messages_by_type, retransmitted, rounds


def in_batches(tags, cuts):
    """``tags`` split at the sorted ``cuts``: ``(first index, batch)``."""
    edges = [0] + sorted(set(cuts)) + [len(tags)]
    return [
        (start, tags[start:stop])
        for start, stop in zip(edges, edges[1:])
        if stop > start
    ]


class TestResumeInsideASourceBatch:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_accounting_equals_the_per_frame_reference(self, data):
        # Two attempts at one round, batched differently; the first got
        # as far as some batch end, the second resumes anywhere before
        # that — usually part-way into one of its own batches.
        source = MigrationSource(
            SourceState(vm_id="vm", hashes=hashes_for(4), pagestore=PageStore()),
            VECYCLE_DEDUP,
        )
        sizes = source.codec.page_frame_bytes
        tags = data.draw(st.lists(st.sampled_from(sorted(sizes)), min_size=1,
                                  max_size=60))
        indices = st.integers(0, len(tags))
        first_batches = in_batches(tags, data.draw(st.lists(indices, max_size=6)))
        reached = data.draw(st.integers(1, len(first_batches)))
        counted = sum(len(batch) for _, batch in first_batches[:reached])
        resume = data.draw(st.integers(0, counted))
        second_batches = [
            (resume + first, batch)
            for first, batch in in_batches(
                tags[resume:], data.draw(st.lists(indices, max_size=6))
            )
        ]

        metrics = MigrationMetrics(vm_id="vm", mode="m", link="l")
        for first, batch in first_batches[:reached]:
            source._account_batch(metrics, RoundMetrics(round_no=1), 1, first, batch)
        round_stats = RoundMetrics(round_no=1)
        for first, batch in second_batches:
            source._account_batch(metrics, round_stats, 1, first, batch)

        frames = [(FRAME_NAMES[tag], sizes[tag]) for tag in tags]
        by_bytes, by_messages, retransmitted, rounds = reference_accounting(
            frames, [(0, counted, False), (resume, len(tags), True)]
        )
        assert metrics.bytes_by_type == by_bytes
        assert metrics.messages_by_type == by_messages
        assert metrics.retransmitted_bytes == retransmitted
        assert metrics.payload_bytes == sum(size for _, size in frames)
        assert [(round_stats.messages, round_stats.bytes_sent)] == (
            rounds or [(0, 0)]
        )
        assert source._counted[1][: len(tags)] == b"\x01" * len(tags)

    def test_a_resumed_migration_reports_what_the_reference_would(self):
        rng = np.random.default_rng(4)
        pages = 1024
        checkpoint = hashes_for(pages, seed=8)
        current = checkpoint.copy()
        dirty = rng.choice(pages, size=pages // 2, replace=False)
        current[dirty] = rng.integers(
            2**62, 2**63, size=dirty.size, dtype=np.uint64
        )
        store = PageStore()
        abort_after = 101  # inside the one batch of the round's 512 CHECKSUM frames
        counted_at_connect = []
        source = None
        config = RuntimeConfig(
            io_timeout_s=5.0,
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01),
            on_stream=lambda _stream: counted_at_connect.append(
                len(source._counted.get(1, b""))
            ),
        )

        async def main():
            nonlocal source
            async with CheckpointDaemon(pagestore=store) as daemon:
                daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
                daemon.faults = FaultInjector(after_messages=abort_after, times=1)
                source = MigrationSource(
                    SourceState(vm_id="vm", hashes=current, pagestore=store),
                    VECYCLE,
                    config=config,
                )
                return await source.migrate(daemon.host, daemon.port)

        metrics = asyncio.run(main())
        assert metrics.retries == 1
        # How far the first attempt had queued when the abort reached it
        # is the socket buffers' business; it is past the abort point.
        queued = counted_at_connect[1]
        assert queued > abort_after

        # The plan's send order: every CHECKSUM frame, then every FULL one.
        wire = VECYCLE.wire
        frames = [("checksum", wire.message_bytes("checksum"))] * (pages - dirty.size)
        frames += [("full", wire.message_bytes("full"))] * dirty.size
        by_bytes, by_messages, retransmitted, rounds = reference_accounting(
            frames, [(0, queued, queued == pages), (abort_after, pages, True)]
        )
        assert metrics.bytes_by_type == by_bytes
        assert metrics.messages_by_type == by_messages
        assert metrics.retransmitted_bytes == retransmitted > 0
        assert metrics.payload_bytes == sum(size for _, size in frames)
        assert [(r.round_no, r.messages, r.bytes_sent) for r in metrics.rounds] == [
            (1, messages, sent) for messages, sent in rounds
        ]


class TestAwaitsPerBufferNotPerPage:
    def test_a_round_of_checksum_frames_takes_few_refills(self, monkeypatch):
        pages = 4096
        hashes = hashes_for(pages, seed=3)
        store = PageStore(cache_limit=2 * pages)
        ticks = 0
        refills = []
        batches = []
        fill = ShapedStream.fill
        apply_pages = sink_module._SinkSession.apply_pages

        async def counting_fill(self, timeout_s=None):
            refills.append(ticks)
            await fill(self, timeout_s)

        def counting_apply(self, decoded, frame_bytes):
            batches.append([FRAME_NAMES[row[0]] for row in decoded.rows()])
            apply_pages(self, decoded, frame_bytes)

        monkeypatch.setattr(ShapedStream, "fill", counting_fill)
        monkeypatch.setattr(
            sink_module._SinkSession, "apply_pages", counting_apply
        )

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0)

        async def main():
            task = asyncio.ensure_future(ticker())
            try:
                async with CheckpointDaemon(pagestore=store) as daemon:
                    daemon.install_checkpoint("vm", Fingerprint(hashes=hashes))
                    source = MigrationSource(
                        SourceState(vm_id="vm", hashes=hashes, pagestore=store),
                        VECYCLE,
                        config=RuntimeConfig(io_timeout_s=5.0),
                    )
                    return await source.migrate(daemon.host, daemon.port)
            finally:
                task.cancel()

        metrics = asyncio.run(main())
        assert metrics.outcome == "completed"
        assert metrics.messages_by_type == {"checksum": pages}
        # Both ends' socket reads for the whole migration, control
        # frames included — where frame-at-a-time decoding awaited at
        # least twice per page.
        assert len(refills) <= pages // 8
        assert sum(map(len, batches)) == pages
        assert len(batches) <= len(refills)
        # The loop is shared all the same: other tasks ran between refills.
        assert refills[-1] > refills[0]
        assert len(set(refills)) > 2
