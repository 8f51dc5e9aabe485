"""One round's sends: each batch ``encode_pages`` cuts is one socket send.

The source writes a round as the blobs :meth:`FrameCodec.encode_pages`
yields, cut at ``BATCH_BYTES``, with the ROUND header riding in the
first.  These tests record every send of a live migration (HELLO, the
round's sends, COMPLETE) and check the round's part of it.
"""

import asyncio
from dataclasses import replace

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import MIYAKODORI, QEMU, VECYCLE, VECYCLE_DEDUP
from repro.mem.pagestore import PageStore
from repro.obs.metrics import get_registry
from repro.runtime import (
    CheckpointDaemon,
    FrameCodec,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.runtime.frames import TYPE_PAGE_FULL
from repro.runtime.planner import KIND_CHECKSUM, KIND_FULL, KIND_PLAIN, KIND_REF
from repro.runtime.source import BATCH_BYTES

FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)
HEADER = len(FrameCodec.encode_round(1, 0))


def vm(pages: int, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hashes = rng.integers(1, 2**62, size=pages, dtype=np.uint64)
    hashes[rng.choice(pages, size=pages // 8, replace=False)] = hashes[0]
    return hashes


def recording(sends, fail_at=None):
    """An ``on_stream`` hook appending every send to ``sends``; with
    ``fail_at`` the send of that index (counted over every connection)
    drops the connection instead, once."""

    def hook(stream):
        send = stream.send

        async def record(data):
            index = len(sends)
            sends.append(bytes(data))
            if index == fail_at:
                stream.abort()
                raise ConnectionResetError("peer vanished mid-round")
            await send(data)

        stream.send = record

    return hook


async def migrate(strategy, current, checkpoint=None, dirty=None, fail_at=None):
    """Returns ``(metrics, source, daemon, sends)``."""
    store = PageStore()
    sends = []
    async with CheckpointDaemon(pagestore=store) as daemon:
        if checkpoint is not None:
            daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
        source = MigrationSource(
            SourceState("vm", current, store, dirty_slots=dirty),
            strategy,
            config=replace(FAST, on_stream=recording(sends, fail_at)),
        )
        metrics = await source.migrate(daemon.host, daemon.port)
    return metrics, source, daemon, sends


def round_sends(sends):
    """The sends between HELLO and COMPLETE of a one-connection run."""
    return sends[1:-1]


def single_frames(source: MigrationSource) -> bytes:
    """The first round through the single-frame encoders, in plan order."""
    codec, store = source.codec, source.state.pagestore
    checksum = source.strategy.checksum
    sends = source._rounds[0]
    frames = []
    for kind, slot, content_id, ref in zip(
        sends.kinds.tolist(), sends.slots.tolist(),
        sends.content_ids.tolist(), sends.refs.tolist(),
    ):
        if kind == KIND_FULL:
            frames.append(codec.encode_page_full(
                slot, store.digest_for(content_id, checksum), store.page_bytes(content_id)
            ))
        elif kind == KIND_CHECKSUM:
            frames.append(codec.encode_page_checksum(
                slot, store.digest_for(content_id, checksum)
            ))
        elif kind == KIND_REF:
            frames.append(codec.encode_page_ref(slot, ref))
        else:
            assert kind == KIND_PLAIN
            frames.append(codec.encode_page_plain(slot, store.page_bytes(content_id)))
    return b"".join(frames)


class TestBatchWriter:
    def test_buffers_below_limit(self):
        # An idle 64-page return: 64 checksum frames, far below the limit.
        hashes = vm(64)
        metrics, source, _, sends = asyncio.run(migrate(VECYCLE, hashes, hashes))
        (only,) = round_sends(sends)
        assert len(only) == HEADER + metrics.payload_bytes < BATCH_BYTES
        assert only[:HEADER] == source.codec.encode_round(1, 64)

    def test_flushes_at_limit(self):
        # A first visit of 64 pages: 64 full frames of 4,121 B, so every
        # 16th frame reaches 64 KiB.
        metrics, source, _, sends = asyncio.run(migrate(VECYCLE, vm(64)))
        frame = source.codec.page_frame_bytes[TYPE_PAGE_FULL]
        batches = round_sends(sends)
        assert len(batches) == 4
        assert sum(map(len, batches)) == HEADER + metrics.payload_bytes
        for batch in batches[:-1]:
            # Cut at the first frame boundary at or past the limit.
            assert BATCH_BYTES <= len(batch) < BATCH_BYTES + frame
        assert (len(batches[0]) - HEADER) % frame == 0

    def test_explicit_flush_drains(self):
        # The round's last, partial batch still goes out before COMPLETE.
        metrics, _, _, sends = asyncio.run(migrate(QEMU, vm(40)))
        batches = round_sends(sends)
        assert 0 < len(batches[-1]) < BATCH_BYTES
        assert sum(map(len, batches)) == HEADER + metrics.payload_bytes

    def test_flush_when_empty_is_noop(self):
        # No send is empty, and each one is one counted flush.
        flushes = get_registry().counter("runtime.batch_flushes")
        before = flushes.value
        _, _, _, sends = asyncio.run(migrate(VECYCLE, vm(64)))
        assert all(sends)
        assert flushes.value - before == len(round_sends(sends))

    def test_concatenation_preserves_frame_order(self):
        checkpoint = vm(96)
        current = checkpoint.copy()
        current[::3] = vm(32, seed=10)  # new content, duplicated slots
        _, source, _, sends = asyncio.run(
            migrate(VECYCLE_DEDUP, current, checkpoint)
        )
        wire = b"".join(round_sends(sends))
        assert wire == source.codec.encode_round(1, 96) + single_frames(source)

    def test_an_empty_round_sends_its_header_alone(self):
        # Dirty tracking with nothing dirty: a round of no frame.
        hashes = vm(64)
        metrics, source, _, sends = asyncio.run(
            migrate(MIYAKODORI, hashes, hashes, dirty=np.array([], dtype=np.int64))
        )
        assert metrics.outcome == "completed"
        assert round_sends(sends) == [source.codec.encode_round(1, 0)]


class TestMidFlushDisconnect:
    def clean_run(self, strategy, hashes):
        metrics, _, daemon, _ = asyncio.run(migrate(strategy, hashes))
        return metrics, daemon.checkpoints["vm"].slot_digests

    def test_a_failed_first_send_resends_the_round(self):
        hashes = vm(64)
        clean, image = self.clean_run(VECYCLE, hashes)
        # Send 1 is the round's first: header plus the first batch.
        metrics, _, daemon, sends = asyncio.run(migrate(VECYCLE, hashes, fail_at=1))
        assert metrics.outcome == "completed" and metrics.retries == 1
        assert daemon.checkpoints["vm"].slot_digests == image
        # Nothing of the round was applied, so the retry sends it whole;
        # the lost batch's frames are counted once, as retransmissions.
        lost = sends[1]
        assert metrics.payload_bytes == clean.payload_bytes
        assert metrics.retransmitted_bytes == len(lost) - HEADER
        assert sends[3] == lost  # after the retry's HELLO

    def test_a_failed_mid_round_send_resumes(self):
        hashes = vm(64)
        clean, image = self.clean_run(VECYCLE, hashes)
        metrics, _, daemon, sends = asyncio.run(migrate(VECYCLE, hashes, fail_at=2))
        assert metrics.outcome == "completed" and metrics.retries == 1
        assert daemon.checkpoints["vm"].slot_digests == image
        assert metrics.payload_bytes == clean.payload_bytes
        # The resumed round re-sends at most what the daemon had not
        # applied: never more than the two batches of the first attempt.
        assert metrics.retransmitted_bytes <= len(sends[1]) + len(sends[2]) - HEADER
