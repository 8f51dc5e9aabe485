"""Tests for the traffic-shaped stream layer."""

import asyncio
import time

import pytest

from repro.net.link import LOOPBACK, Link, WAN_CLOUDNET
from repro.runtime.shaping import ShapedStream, open_shaped_connection

MIB = 2**20


async def serve(handler):
    """A plain-asyncio peer running ``handler(reader, writer)`` once per
    connection; returns (server, host, port)."""
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, host, port


async def echo_server():
    """A server that discards everything; returns (server, host, port)."""

    async def handle(reader, writer):
        try:
            while await reader.read(64 * 1024):
                pass
        finally:
            writer.close()

    return await serve(handle)


async def shaped_pair():
    """Two connected streams: ``(server, client stream, accepted stream)``."""
    loop = asyncio.get_running_loop()
    accepted = loop.create_future()
    server = await loop.create_server(
        lambda: ShapedStream(on_connect=accepted.set_result), "127.0.0.1", 0
    )
    host, port = server.sockets[0].getsockname()[:2]
    return server, await open_shaped_connection(host, port), await accepted


def run(coro):
    return asyncio.run(coro)


class TestAccounting:
    def test_counts_tx_bytes_and_modelled_time(self):
        async def main():
            server, host, port = await echo_server()
            async with server:
                stream = await open_shaped_connection(
                    host, port, link=WAN_CLOUDNET, time_scale=0.0
                )
                payload = bytes(MIB)
                await stream.send(payload)
                await stream.send(payload)
                await stream.close()
                return stream

        stream = run(main())
        assert stream.tx_bytes == 2 * MIB
        # Connection setup pays one RTT; each MiB pays serialization.
        expected = WAN_CLOUDNET.rtt_s + WAN_CLOUDNET.serialization_delay(2 * MIB)
        assert stream.modelled_tx_s == pytest.approx(expected)

    def test_unshaped_stream_accounts_bytes_but_no_time(self):
        async def main():
            server, host, port = await echo_server()
            async with server:
                stream = await open_shaped_connection(host, port, link=None)
                await stream.send(b"x" * 1000)
                await stream.close()
                return stream

        stream = run(main())
        assert stream.tx_bytes == 1000
        assert stream.modelled_tx_s == 0.0

    def test_time_scale_zero_never_sleeps(self):
        async def main():
            server, host, port = await echo_server()
            async with server:
                stream = await open_shaped_connection(
                    host, port, link=WAN_CLOUDNET, time_scale=0.0
                )
                started = time.monotonic()
                # 20 MiB would take ~3.4 s at the WAN's ~5.8 MiB/s.
                for _ in range(20):
                    await stream.send(bytes(MIB))
                elapsed = time.monotonic() - started
                await stream.close()
                return stream, elapsed

        stream, elapsed = run(main())
        assert stream.modelled_tx_s > 3.0
        assert elapsed < 1.0

    def test_negative_time_scale_rejected(self):
        # time_scale is validated before any connection exists.
        with pytest.raises(ValueError, match="time_scale"):
            ShapedStream(time_scale=-1.0)


class TestPacing:
    def test_scaled_pacing_approximates_modelled_time(self):
        # A tiny link: 1 MiB at 8 Mbit/s ≈ 1.05 s modelled; at
        # time_scale=0.1 the real run should take roughly 0.1 s.
        link = Link(name="tiny", bandwidth_bps=8e6, latency_s=0.0, efficiency=1.0)

        async def main():
            server, host, port = await echo_server()
            async with server:
                stream = await open_shaped_connection(
                    host, port, link=link, time_scale=0.1
                )
                started = time.monotonic()
                for _ in range(16):
                    await stream.send(bytes(64 * 1024))
                elapsed = time.monotonic() - started
                await stream.close()
                return stream, elapsed

        stream, elapsed = run(main())
        assert stream.modelled_tx_s == pytest.approx(MIB / 1e6, rel=0.01)
        assert 0.05 < elapsed < 0.6

    def test_loopback_is_effectively_unshaped(self):
        async def main():
            server, host, port = await echo_server()
            async with server:
                stream = await open_shaped_connection(
                    host, port, link=LOOPBACK, time_scale=1.0
                )
                started = time.monotonic()
                for _ in range(8):
                    await stream.send(bytes(MIB))
                elapsed = time.monotonic() - started
                await stream.close()
                return elapsed

        assert run(main()) < 1.0


class TestRecvTimeout:
    def test_silent_peer_times_out(self):
        async def main():
            server, host, port = await echo_server()
            async with server:
                stream = await open_shaped_connection(host, port)
                recv = stream.recv_with_timeout(0.1)
                with pytest.raises(asyncio.TimeoutError):
                    await recv(1)
                await stream.close()

        run(main())

    def test_recv_counts_rx_bytes(self):
        async def main():
            async def handle(reader, writer):
                writer.write(b"abcdef")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            async with server:
                stream = await open_shaped_connection(host, port)
                data = await stream.recv(6)
                await stream.close()
                return data, stream.rx_bytes

        data, rx = run(main())
        assert data == b"abcdef"
        assert rx == 6


# --- the receive arena ------------------------------------------------------


def patterned(num_bytes: int) -> bytes:
    return bytes(range(251)) * (num_bytes // 251) + bytes(range(num_bytes % 251))


class TestArenaDeliversWhatThePeerWrote:
    PAYLOAD = patterned(MIB)

    def receive(self, write, reader_kind):
        """The payload as a ShapedStream reader sees it, the peer
        sending it through ``write(writer, payload)``."""

        async def main():
            async def handle(reader, writer):
                await write(writer, self.PAYLOAD)
                writer.close()

            server, host, port = await serve(handle)
            async with server:
                stream = await open_shaped_connection(host, port)
                received = bytearray()
                if reader_kind == "recv":
                    for size in (1, 2, 4096, 4121, 70_000):
                        received += await stream.recv(size, 5.0)
                    rest = len(self.PAYLOAD) - len(received)
                    received += await stream.recv(rest, 5.0)
                else:
                    while len(received) < len(self.PAYLOAD):
                        view = stream.peek()
                        if not view:
                            await stream.fill(5.0)
                            continue
                        # Leave a tail unconsumed, like a partial frame.
                        take = max(1, len(view) - 7)
                        received += view[:take]
                        stream.consume(take)
                rx = stream.rx_bytes
                await stream.close()
                return bytes(received), rx

        return run(main())

    @staticmethod
    async def at_once(writer, payload):
        writer.write(payload)
        await writer.drain()

    @staticmethod
    async def a_byte_at_a_time(writer, payload):
        # Nagle is off on asyncio's sockets: the head really dribbles.
        for i in range(600):
            writer.write(payload[i : i + 1])
            await writer.drain()
            if i % 50 == 0:
                await asyncio.sleep(0)
        writer.write(payload[600:])
        await writer.drain()

    @pytest.mark.parametrize("reader_kind", ["recv", "fill-peek-consume"])
    def test_one_byte_at_a_time_and_a_mebibyte_at_once_read_the_same(
        self, reader_kind
    ):
        at_once = self.receive(self.at_once, reader_kind)
        dribbled = self.receive(self.a_byte_at_a_time, reader_kind)
        assert at_once == dribbled == (self.PAYLOAD, len(self.PAYLOAD))

    def test_a_frame_larger_than_the_soft_cap_is_received_whole(self):
        from repro.runtime.frames import FrameCodec, TYPE_ANNOUNCE
        from repro.runtime.shaping import _ARENA_SOFT_CAP_BYTES

        codec = FrameCodec()
        digests = [i.to_bytes(16, "big") for i in range(2**17)]
        announce = codec.encode_announce(digests)
        assert len(announce) > 8 * _ARENA_SOFT_CAP_BYTES

        async def main():
            async def handle(reader, writer):
                writer.write(announce + b"tail")
                await writer.drain()
                writer.close()

            server, host, port = await serve(handle)
            async with server:
                stream = await open_shaped_connection(host, port)
                recv = stream.recv_with_timeout(5.0)
                frame = await codec.read_frame(recv)
                tail = await recv(4)
                await stream.close()
                return frame, tail

        frame, tail = run(main())
        assert frame.type == TYPE_ANNOUNCE
        assert list(frame.digests) == digests
        assert tail == b"tail"


class TestArenaFailureModes:
    def test_eof_mid_frame_raises_incomplete_read(self):
        async def main():
            async def handle(reader, writer):
                writer.write(b"half a fra")
                await writer.drain()
                writer.close()

            server, host, port = await serve(handle)
            async with server:
                stream = await open_shaped_connection(host, port)
                with pytest.raises(asyncio.IncompleteReadError) as caught:
                    await stream.recv(64, 5.0)
                await stream.close()
                return caught.value.partial

        assert run(main()) == b"half a fra"

    def test_a_silent_peer_times_out_within_the_timeout(self):
        async def main():
            server, host, port = await echo_server()
            async with server:
                stream = await open_shaped_connection(host, port)
                started = time.monotonic()
                with pytest.raises(asyncio.TimeoutError):
                    await stream.fill(0.1)
                elapsed = time.monotonic() - started
                # The stream is still good: the timeout cancelled nothing.
                await stream.send(b"still here")
                await stream.close()
                return elapsed

        assert 0.09 <= run(main()) < 1.0

    def test_abort_resets_the_peer(self):
        async def main():
            seen = asyncio.get_running_loop().create_future()

            async def handle(reader, writer):
                try:
                    seen.set_result(await reader.read(100))
                except ConnectionError as exc:
                    seen.set_result(exc)
                writer.close()

            server, host, port = await serve(handle)
            async with server:
                stream = await open_shaped_connection(host, port)
                await asyncio.sleep(0.05)  # the peer is now reading
                stream.abort()
                outcome = await asyncio.wait_for(seen, 5.0)
                with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
                    await stream.recv(1, 1.0)
                await stream.close()
                return outcome

        outcome = run(main())
        # An abort is a reset (or, at the latest, an immediate EOF) —
        # never a peer left waiting for bytes.
        assert isinstance(outcome, ConnectionError) or outcome == b""


class TestArenaBoundsMemory:
    def test_a_consumer_that_never_consumes_stalls_the_sender(self):
        from repro.runtime.shaping import _ARENA_SOFT_CAP_BYTES

        chunk = patterned(64 * 1024)
        chunks = 512  # 32 MiB: past anything loopback socket buffers hold

        async def main():
            server, sender, receiver = await shaped_pair()
            async with server:

                async def pump():
                    for _ in range(chunks):
                        await sender.send(chunk)

                pumping = asyncio.ensure_future(pump())
                sent = -1
                while sender.tx_bytes != sent:  # until nothing moves any more
                    sent = sender.tx_bytes
                    await asyncio.sleep(0.2)
                stalled = (pumping.done(), sent, len(receiver.peek()))

                received = 0
                while received < chunks * len(chunk):
                    view = receiver.peek()
                    if not view:
                        await receiver.fill(5.0)
                        continue
                    at = received % len(chunk)
                    whole = chunk * (len(view) // len(chunk) + 2)
                    assert view == whole[at : at + len(view)]
                    received += len(view)
                    receiver.consume(len(view))
                await asyncio.wait_for(pumping, 5.0)
                await sender.close()
                await receiver.close()
                return stalled, sender.tx_bytes, receiver.rx_bytes

        (done, sent, held), tx, rx = run(main())
        assert not done
        assert sent < chunks * len(chunk)
        # Memory bounded: the arena stopped at its cap and said so to the
        # transport, so the rest waits in socket buffers and the sender.
        assert 0 < held <= _ARENA_SOFT_CAP_BYTES
        assert tx == rx == chunks * len(chunk)

    def test_a_heartbeat_sized_exchange_never_allocates_the_bulk_arena(self):
        from repro.runtime.shaping import _ARENA_SOFT_CAP_BYTES

        async def main():
            server, client, served = await shaped_pair()
            async with server:
                await client.send(b"?" * 200)
                assert await served.recv(200, 5.0) == b"?" * 200
                await served.send(b"!" * 9000)
                assert await client.recv(9000, 5.0) == b"!" * 9000
                sizes = len(client._arena), len(served._arena)
                await client.close()
                await served.close()
                return sizes

        client_arena, served_arena = run(main())
        assert max(client_arena, served_arena) <= _ARENA_SOFT_CAP_BYTES // 8

    def test_a_reader_that_leaves_a_full_arena_costs_one_more_arena_at_most(self):
        # Driven through the protocol callbacks, as a transport would:
        # the arena fills while a reader waits (so reading is not paused
        # under it), the reader goes away without consuming, and the
        # next reads must neither find an empty buffer nor grow forever.
        from repro.runtime.shaping import _ARENA_SOFT_CAP_BYTES

        class Transport:
            paused = False

            def set_write_buffer_limits(self, high):
                pass

            def pause_reading(self):
                self.paused = True

            def resume_reading(self):
                self.paused = False

        def deliver(stream, transport, num_bytes):
            while num_bytes and not transport.paused:
                buffer = stream.get_buffer(-1)
                assert len(buffer) > 0
                took = min(len(buffer), num_bytes)
                buffer[:took] = bytes(took)
                stream.buffer_updated(took)
                num_bytes -= took

        async def main():
            transport, stream = Transport(), ShapedStream()
            stream.connection_made(transport)
            reader = asyncio.ensure_future(stream.fill(5.0))
            await asyncio.sleep(0)  # the reader is waiting now
            deliver(stream, transport, _ARENA_SOFT_CAP_BYTES)
            waiting = (transport.paused, len(stream.peek()))
            await reader  # woken; it consumes nothing and never returns
            deliver(stream, transport, 4 * _ARENA_SOFT_CAP_BYTES)
            abandoned = (transport.paused, len(stream.peek()))
            stream.consume(len(stream.peek()))
            return waiting, abandoned, transport.paused

        waiting, abandoned, paused_after_consume = run(main())
        assert waiting == (False, _ARENA_SOFT_CAP_BYTES)
        assert abandoned == (True, 2 * _ARENA_SOFT_CAP_BYTES)
        assert not paused_after_consume
