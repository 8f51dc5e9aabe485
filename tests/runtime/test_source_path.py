"""The source has one data path; these tests pin its order, no wall clock.

HELLO → READY → sliced digest → ANNOUNCE → plan → batched send.  A stub
sink built from :class:`FrameCodec` plays the destination, and a
:class:`PageStore` subclass counts the checksums actually computed.
"""

import asyncio
import math
import socket
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.protocol import first_round_traffic
from repro.core.strategies import VECYCLE
from repro.core.transfer import compute_transfer_set
from repro.mem.pagestore import PageStore
from repro.obs.metrics import get_registry
from repro.runtime import (
    CheckpointDaemon,
    FrameCodec,
    MigrationError,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.runtime import source as source_module
from repro.runtime.faults import FaultInjector
from repro.runtime.frames import TYPE_COMPLETE, TYPE_HELLO, TYPE_ROUND

N = 1024
LOCALHOST = "127.0.0.1"
FAST = RuntimeConfig(
    io_timeout_s=1.0,
    connect_timeout_s=1.0,
    retry=RetryPolicy(max_attempts=2, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)


class CountingStore(PageStore):
    """A page store that reports how many checksums it has computed."""

    @property
    def computed(self) -> int:
        # Nothing is evicted at this scale, so every miss is still cached.
        return sum(map(len, self._digests.values()))


def image(seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hashes = rng.integers(1, 2**62, size=N, dtype=np.uint64)
    hashes[rng.choice(N, size=N // 8, replace=False)] = hashes[0]
    return hashes


def make_source(hashes, store, config=FAST, vm_id="vm") -> MigrationSource:
    return MigrationSource(
        SourceState(vm_id=vm_id, hashes=hashes, pagestore=store),
        VECYCLE,
        config=config,
    )


async def run_against(sink, source: MigrationSource):
    """Migrate ``source`` into the stub ``sink(reader, writer)``."""

    async def handler(reader, writer):
        try:
            await sink(reader, writer)
        finally:
            writer.close()

    server = await asyncio.start_server(handler, LOCALHOST, 0)
    try:
        port = server.sockets[0].getsockname()[1]
        return await source.migrate(LOCALHOST, port)
    finally:
        server.close()
        await server.wait_closed()


async def accept_rounds(codec: FrameCodec, reader, writer, before_round=None):
    """Play the destination from the first ROUND header to the RESULT."""
    frame = await codec.read_frame(reader.readexactly)
    assert frame.type == TYPE_ROUND
    if before_round is not None:
        before_round()
    while frame.type != TYPE_COMPLETE:
        frame = await codec.read_frame(reader.readexactly)
    writer.write(codec.encode_result({"ok": True}))
    await writer.drain()


class TestSourcePath:
    def test_digesting_runs_while_the_announce_is_withheld(self):
        # The old serial order read the announce before hashing anything:
        # against this sink it would sit in the read until io_timeout_s.
        hashes = image()
        distinct = int(np.unique(hashes).size)
        store = CountingStore()
        codec = FrameCodec(VECYCLE.wire)

        async def sink(reader, writer):
            hello = await codec.read_frame(reader.readexactly)
            assert hello.type == TYPE_HELLO
            writer.write(codec.encode_ready(1, 0, True, False))
            await writer.drain()
            while store.computed < distinct:
                await asyncio.sleep(0)
            writer.write(codec.encode_announce([]))
            await writer.drain()
            await accept_rounds(codec, reader, writer)

        metrics = asyncio.run(run_against(sink, make_source(hashes, store)))
        assert metrics.outcome == "completed"
        assert metrics.retries == 0
        assert store.computed == distinct

    def test_event_loop_runs_between_digest_slices(self, monkeypatch):
        # A handful of yields happen anyway (socket reads); 64 slices
        # make the sliced pass the only way to reach the bound.
        monkeypatch.setattr(source_module, "DIGEST_SLICE_PAGES", 16)
        hashes = image()
        slices = math.ceil(np.unique(hashes).size / 16)
        codec = FrameCodec(VECYCLE.wire)
        ticks = 0
        marks = []

        async def ticker():
            nonlocal ticks
            while True:
                ticks += 1
                await asyncio.sleep(0)

        async def sink(reader, writer):
            await codec.read_frame(reader.readexactly)  # HELLO
            marks.append(ticks)
            writer.write(
                codec.encode_ready(1, 0, True, False) + codec.encode_announce([])
            )
            await writer.drain()
            await accept_rounds(
                codec, reader, writer, before_round=lambda: marks.append(ticks)
            )

        async def main():
            task = asyncio.ensure_future(ticker())
            try:
                return await run_against(sink, make_source(hashes, CountingStore()))
            finally:
                task.cancel()

        assert asyncio.run(main()).outcome == "completed"
        hello_tick, round_tick = marks
        assert round_tick - hello_tick >= slices

    def test_error_reply_costs_no_digesting(self):
        store = CountingStore()
        codec = FrameCodec(VECYCLE.wire)

        async def sink(reader, writer):
            await codec.read_frame(reader.readexactly)  # HELLO
            writer.write(codec.encode_error({"code": "rejected", "message": "full"}))
            await writer.drain()

        with pytest.raises(MigrationError) as excinfo:
            asyncio.run(run_against(sink, make_source(image(), store)))
        assert excinfo.value.code == "protocol"
        assert store.computed == 0

    def test_replayed_result_costs_no_digesting(self):
        store = CountingStore()
        codec = FrameCodec(VECYCLE.wire)

        async def sink(reader, writer):
            await codec.read_frame(reader.readexactly)  # HELLO
            writer.write(
                codec.encode_ready(1, 0, False, True)
                + codec.encode_result({"ok": True})
            )
            await writer.drain()

        metrics = asyncio.run(run_against(sink, make_source(image(), store)))
        assert metrics.outcome == "completed"
        assert store.computed == 0

    def test_resumed_attempt_computes_no_new_digests(self):
        rng = np.random.default_rng(9)
        checkpoint = image()
        current = checkpoint.copy()
        dirty = rng.choice(N, size=400, replace=False)
        current[dirty] = rng.integers(2**62, 2**63, size=400, dtype=np.uint64)
        store = CountingStore()
        computed_at_connect = []
        config = RuntimeConfig(
            io_timeout_s=5.0,
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01),
            on_stream=lambda _stream: computed_at_connect.append(store.computed),
        )

        async def main():
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
                daemon.faults = FaultInjector(after_messages=100, times=1)
                source = make_source(current, store, config=config)
                metrics = await source.migrate(daemon.host, daemon.port)
                return metrics, daemon.checkpoints["vm"].slot_digests

        metrics, slot_digests = asyncio.run(main())
        assert metrics.outcome == "completed"
        assert metrics.retries == 1
        distinct = int(np.unique(current).size)
        assert computed_at_connect == [0, distinct]
        assert store.computed == distinct
        reference = PageStore()
        assert slot_digests == [reference.digest_for(int(c)) for c in current]


class CallCountingStore(PageStore):
    """A page store that reports every ``digests_for`` call it served."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self.ids = 0

    def digests_for(self, content_ids, *args, **kwargs):
        self.calls += 1
        self.ids += len(np.asarray(content_ids))
        return super().digests_for(content_ids, *args, **kwargs)


class TestOneDigestPass:
    """The migration keeps the content id → checksum table it built."""

    def test_a_clean_migration_digests_each_distinct_page_once(self):
        hashes = image()
        store = CallCountingStore()

        async def main():
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                source = make_source(hashes, store)
                metrics = await source.migrate(daemon.host, daemon.port)
                return metrics, source.final_digests(), daemon.checkpoint_digests("vm")

        metrics, final, hosted = asyncio.run(main())
        assert metrics.outcome == "completed"
        distinct = int(np.unique(hashes).size)
        # The sliced pass and nothing else: not the encoder, not COMPLETE,
        # not final_digests().
        assert store.ids == distinct
        assert store.calls == math.ceil(distinct / source_module.DIGEST_SLICE_PAGES)
        assert final == hosted == frozenset(PageStore().digests_for(hashes))

    def test_a_dirty_round_with_unseen_contents_renews_the_final_digests(self):
        rng = np.random.default_rng(11)
        hashes = image()
        store = CallCountingStore()
        seen_before_round_two = []
        dirtied = np.sort(rng.choice(N, size=40, replace=False))

        async def main():
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                source = make_source(hashes, store)

                def dirty_feed(round_no):
                    if round_no > 2:
                        return None
                    # Asked before the round exists: the memo is filled …
                    seen_before_round_two.append(source.final_digests())
                    source.state.hashes[dirtied] = rng.integers(
                        2**62, 2**63, size=dirtied.size, dtype=np.uint64
                    )
                    return dirtied

                metrics = await source.migrate(
                    daemon.host, daemon.port, dirty_feed=dirty_feed
                )
                return (
                    metrics,
                    source.final_digests(),
                    daemon.checkpoints["vm"].slot_digests,
                )

        metrics, final, slot_digests = asyncio.run(main())
        # … and the sink verified COMPLETE's digest against its own image,
        # which holds round two's pages: the memo was dropped.
        assert metrics.outcome == "completed"
        assert len(metrics.rounds) == 2
        reference = PageStore().digests_for(hashes)
        assert slot_digests == reference
        assert final == frozenset(reference)
        assert seen_before_round_two == [frozenset(PageStore().digests_for(image()))]
        assert final != seen_before_round_two[0]
        # Only the contents round two introduced went back to the store.
        distinct = int(np.unique(image()).size)
        assert store.ids == distinct + dirtied.size

    @pytest.mark.parametrize("mid_result", [False, True])
    def test_a_retry_after_a_disconnect_digests_nothing_more(self, mid_result):
        checkpoint = image()
        current = checkpoint.copy()
        current[:400] = np.arange(2**62, 2**62 + 400, dtype=np.uint64)
        store = CallCountingStore()
        calls_at_connect = []
        config = RuntimeConfig(
            io_timeout_s=5.0,
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01),
            on_stream=lambda _stream: calls_at_connect.append(store.calls),
        )

        async def main():
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
                daemon.faults = FaultInjector(
                    after_messages=100, times=1, mid_result=mid_result
                )
                source = make_source(current, store, config=config)
                metrics = await source.migrate(daemon.host, daemon.port)
                return metrics, source.final_digests(), daemon.checkpoint_digests("vm")

        metrics, final, hosted = asyncio.run(main())
        assert metrics.outcome == "completed"
        assert metrics.retries == 1
        first_attempt = math.ceil(
            np.unique(current).size / source_module.DIGEST_SLICE_PAGES
        )
        # The resumed round, the second COMPLETE (or the replayed RESULT)
        # and final_digests() all read the table the first attempt built.
        assert calls_at_connect == [0, first_attempt]
        assert store.calls == first_attempt
        assert final == hosted


class TestOneAccount:
    """One ``migrate()``, however many connections: one exact account."""

    @pytest.mark.parametrize(
        "faults, connections",
        [
            (FaultInjector(after_messages=300, times=1), 2),
            (FaultInjector(after_messages=300, times=2), 3),
            (FaultInjector(after_messages=300, times=3), 4),
            (FaultInjector(truncate_ready_bytes=4, truncate_times=1), 2),
        ],
        ids=["disconnect-1", "disconnect-2", "disconnect-3", "desync-ready"],
    )
    def test_every_sent_byte_lands_in_one_bucket(self, faults, connections):
        rng = np.random.default_rng(23)
        checkpoint = rng.integers(1, 2**62, size=N, dtype=np.uint64)
        current = checkpoint.copy()
        dirty = rng.choice(N, size=N // 2, replace=False)
        current[dirty] = rng.integers(2**62, 2**63, size=N // 2, dtype=np.uint64)
        analytic = first_round_traffic(
            compute_transfer_set(
                VECYCLE.method,
                Fingerprint(hashes=current),
                checkpoint=Fingerprint(hashes=checkpoint),
            ),
            VECYCLE.wire,
        )
        streams = []
        config = RuntimeConfig(
            io_timeout_s=2.0,
            retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.02),
            on_stream=streams.append,
        )
        control_sent = []

        def counted(encode):
            def wrapper(*args):
                frame = encode(*args)
                control_sent.append(len(frame))
                return frame

            return wrapper

        async def main():
            # A copy: the daemon spends the injector's budget.
            armed = replace(faults)
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
                daemon.faults = armed
                source = make_source(current, PageStore(), config=config)
                for name in ("encode_hello", "encode_round", "encode_complete"):
                    setattr(source.codec, name, counted(getattr(source.codec, name)))
                started = time.monotonic()
                metrics = await source.migrate(daemon.host, daemon.port)
                wall = time.monotonic() - started
                return metrics, wall, daemon.audit_store()

        migrations = {
            outcome: get_registry().counter(f"runtime.migrations.{outcome}")
            for outcome in ("completed", "failed")
        }
        before = {outcome: c.value for outcome, c in migrations.items()}
        metrics, wall, audit = asyncio.run(main())

        assert metrics.outcome == "completed"
        assert metrics.payload_bytes == analytic.payload_bytes
        assert len(streams) == connections
        assert metrics.retries == connections - 1
        # Every byte the source wrote is payload, a retransmission, or
        # a control frame it encoded — and nothing is in two of them.
        assert sum(stream.tx_bytes for stream in streams) == (
            metrics.payload_bytes + metrics.retransmitted_bytes + sum(control_sent)
        )
        assert sum(control_sent) < metrics.control_bytes  # + READY, RESULT
        assert 0 < metrics.wall_time_s <= wall
        assert migrations["completed"].value == before["completed"] + 1
        assert migrations["failed"].value == before["failed"]
        assert metrics.sink_stats["rx_payload_bytes"] == metrics.payload_bytes
        assert audit == []


class TestOneRetryLoop:
    """What ``migrate()``'s one loop reconnects for, and how."""

    @staticmethod
    def run_scripted(script, max_attempts):
        """Migrate into a sink playing ``script[i]`` on connection ``i``
        (the last entry repeats; a callable is given the sink's codec,
        to answer the HELLO it read); returns (outcome, HELLO session ids)."""
        codec = FrameCodec(VECYCLE.wire)
        sessions = []

        async def sink(reader, writer):
            hello = await codec.read_frame(reader.readexactly)
            sessions.append(hello.body["session"])
            reply = script[min(len(sessions), len(script)) - 1]
            if reply is None:  # a healthy destination
                writer.write(
                    codec.encode_ready(1, 0, True, False) + codec.encode_announce([])
                )
                await accept_rounds(codec, reader, writer)
            else:
                writer.write(reply(codec) if callable(reply) else reply)
                await writer.drain()

        config = RuntimeConfig(
            io_timeout_s=1.0,
            retry=RetryPolicy(max_attempts=max_attempts, base_backoff_s=0.001),
        )
        source = make_source(image(), PageStore(), config=config)
        try:
            return asyncio.run(run_against(sink, source)), sessions
        except MigrationError as exc:
            return exc, sessions

    def test_transport_keeps_the_session_and_desync_takes_a_fresh_one(self):
        hang_up = b""
        garbage = b"\xee" + b"\x00" * 64  # unknown tag: desync
        metrics, sessions = self.run_scripted([hang_up, garbage, None], 4)
        assert metrics.outcome == "completed"
        assert metrics.retries == 2
        first, second, third = sessions
        assert first == second  # a torn connection resumes its session
        assert third != second  # a desynced one cannot be trusted

    def test_budget_bounds_transport_and_desync_alike(self):
        codec = FrameCodec(VECYCLE.wire)
        desync_error = codec.encode_error({"code": "desync", "message": "lost"})
        for reply, code in ((b"", "transport"), (desync_error, "protocol")):
            error, sessions = self.run_scripted([reply], 3)
            assert isinstance(error, MigrationError)
            assert error.code == code
            assert len(sessions) == 3
            assert error.metrics.retries == 2
            assert error.metrics.outcome == "failed"

    @pytest.mark.parametrize(
        "reply, code",
        [
            (FrameCodec().encode_result({"ok": True}), "protocol"),  # not READY
            (
                lambda codec: codec.encode_ready(1, 0, False, True)
                + codec.encode_result({"ok": False, "error": "mismatch"}),
                "verification",
            ),
        ],
        ids=["codec-violation", "verification"],
    )
    def test_genuine_failures_are_never_retried(self, reply, code):
        error, sessions = self.run_scripted([reply], 4)
        assert isinstance(error, MigrationError)
        assert error.code == code
        assert len(sessions) == 1
        assert error.metrics.retries == 0


class TestRetryJitter:
    def test_backoff_is_keyed_by_vm_id(self, monkeypatch):
        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.01, jitter=0.5)
        slept = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            slept.append(delay)
            await real_sleep(0)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)
        with socket.socket() as probe:
            probe.bind((LOCALHOST, 0))
            refused_port = probe.getsockname()[1]

        def delays(vm_id: str):
            """The backoff sleeps of one migration into a refused port."""
            del slept[:]
            config = RuntimeConfig(connect_timeout_s=1.0, retry=policy)
            source = make_source(image(), PageStore(), config=config, vm_id=vm_id)
            with pytest.raises(MigrationError):
                asyncio.run(source.migrate(LOCALHOST, refused_port))
            return list(slept)

        first = delays("vm-a")
        assert first == [policy.backoff(i, key="vm-a") for i in range(2)]
        assert delays("vm-a") == first
        assert delays("vm-b") != first
