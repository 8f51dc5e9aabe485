"""Traffic-shaped asyncio streams.

The paper's testbed pins down two environments — the gigabit LAN and a
``netem``-emulated CloudNet WAN (§4.1/§4.4).  :class:`ShapedStream` is
the in-process equivalent of that ``netem`` box: it wraps an asyncio
reader/writer pair and paces writes so one connection experiences
exactly the :class:`~repro.net.link.Link` cost model the analytic path
uses — connection setup pays one RTT, serialization runs at
``link.effective_bandwidth`` (which already encodes the TCP window/RTT
ceiling that makes the emulated WAN ~6 MiB/s despite its 465 Mbit/s
line rate).

Runs are reproducible because the delays derive from the deterministic
link model, not from kernel scheduling: the same scenario over
``lan-1gbe`` and ``wan-cloudnet`` differs by the modelled factor.  A
``time_scale`` below 1 compresses the sleeps for tests and demos while
the *modelled* clock keeps full-scale seconds; ``time_scale=0`` keeps
the accounting but never sleeps.

Backpressure is real, not modelled: every send drains the transport, so
a slow receiver stalls the sender through the kernel socket buffers
plus asyncio's write high-water mark.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.net.link import Link

_PACING_QUANTUM_S = 0.005
"""Sleep only once at least this much serialization debt accumulated —
pacing per 4 KiB frame would drown in event-loop overhead."""

_PACING_CHUNK_BYTES = 16 * 1024
"""Shaped writes go to the transport in chunks this big, sleeping the
accumulated debt between chunks.  Writing a large frame in one piece and
sleeping *afterwards* would let the receiver consume the whole frame
before any of its serialization delay elapsed — a 64 KiB bulk announce
would arrive instantly and the sender would then nap, which models
nothing.  Chunking makes the delay receiver-visible: the peer sees the
tail of a large frame only after (most of) its modelled wire time."""

_WRITE_BUFFER_LIMIT = 256 * 1024

_RECV_CHUNK_BYTES = 64 * 1024
"""Socket reads pull up to this much into the stream's receive buffer.
A reader takes what it needs from there: :meth:`ShapedStream.recv`
slices exact lengths off the front for control frames, and the daemon's
round loop decodes every complete page frame the buffer holds in one
pass.  This is therefore also the most page data applied between two
awaits, and the most a sink runs past its write-behind limit."""


class ShapedStream:
    """An asyncio byte stream with link-model pacing and byte accounting.

    Args:
        reader: The connection's ``StreamReader``.
        writer: The connection's ``StreamWriter``.
        link: Cost model to enforce on writes; None disables shaping
            (loopback-fast, still counted).
        time_scale: Multiplier on real sleeps.  1.0 reproduces modelled
            wall time, 0.0 disables sleeping entirely; either way
            :attr:`modelled_tx_s` advances by the full modelled amount.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        link: Optional[Link] = None,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        self.reader = reader
        self.writer = writer
        self.link = link
        self.time_scale = time_scale
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.modelled_tx_s = 0.0
        self._debt_s = 0.0
        self._rx_buf = bytearray()
        try:
            writer.transport.set_write_buffer_limits(high=_WRITE_BUFFER_LIMIT)
        except (AttributeError, NotImplementedError):  # pragma: no cover
            pass

    async def send(self, data: bytes) -> None:
        """Write ``data``, pacing to the link model and draining.

        Shaped writes hit the transport in :data:`_PACING_CHUNK_BYTES`
        pieces with the pacing sleeps interleaved, so a large frame's
        serialization delay is something the *receiver* experiences,
        not just a sleep the sender takes after the fact.
        """
        if self.link is None:
            self.writer.write(data)
            self.tx_bytes += len(data)
            await self.writer.drain()
            return
        view = memoryview(data)
        for start in range(0, len(view), _PACING_CHUNK_BYTES):
            chunk = view[start : start + _PACING_CHUNK_BYTES]
            self.writer.write(bytes(chunk))
            self.tx_bytes += len(chunk)
            delay = self.link.serialization_delay(len(chunk))
            self.modelled_tx_s += delay
            self._debt_s += delay
            if self._debt_s >= _PACING_QUANTUM_S:
                owed, self._debt_s = self._debt_s, 0.0
                if self.time_scale > 0:
                    await asyncio.sleep(owed * self.time_scale)
        await self.writer.drain()

    async def fill(self, timeout_s: Optional[float] = None) -> None:
        """Append one socket read (at most :data:`_RECV_CHUNK_BYTES`) to
        the receive buffer; raises ``IncompleteReadError`` on EOF.

        ``timeout_s`` bounds the read, so a silent peer cannot hang a
        migration.
        """
        read = self.reader.read(_RECV_CHUNK_BYTES)
        chunk = await (
            read if timeout_s is None else asyncio.wait_for(read, timeout_s)
        )
        if not chunk:
            raise asyncio.IncompleteReadError(bytes(self._rx_buf), None)
        self._rx_buf += chunk

    def peek(self) -> bytes:
        """A snapshot of everything received and not yet consumed."""
        return bytes(self._rx_buf)

    def consume(self, num_bytes: int) -> None:
        """Drop ``num_bytes`` from the front of the receive buffer."""
        del self._rx_buf[:num_bytes]
        self.rx_bytes += num_bytes

    async def recv(
        self, num_bytes: int, timeout_s: Optional[float] = None
    ) -> bytes:
        """Read exactly ``num_bytes`` (raises ``IncompleteReadError`` on EOF).

        Reads are buffered: the socket is drained by :meth:`fill` and
        small reads are sliced off the buffer without touching the
        event loop.  ``timeout_s`` bounds each *socket* read — a read
        satisfied from the buffer never pays for an
        ``asyncio.wait_for`` Task.
        """
        buf = self._rx_buf
        while len(buf) < num_bytes:
            await self.fill(timeout_s)
        data = bytes(memoryview(buf)[:num_bytes])
        self.consume(num_bytes)
        return data

    def recv_with_timeout(self, timeout_s: Optional[float]):
        """A ``recv``-shaped callable enforcing a per-socket-read timeout."""

        async def recv(num_bytes: int) -> bytes:
            return await self.recv(num_bytes, timeout_s)

        return recv

    def abort(self) -> None:
        """Tear the connection down immediately (fault injection)."""
        self.writer.transport.abort()

    async def close(self) -> None:
        """Close the writer, swallowing already-broken-pipe noise."""
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def open_shaped_connection(
    host: str,
    port: int,
    link: Optional[Link] = None,
    time_scale: float = 1.0,
    connect_timeout_s: Optional[float] = None,
) -> ShapedStream:
    """Connect to ``host:port`` and wrap the stream in a :class:`ShapedStream`.

    Connection setup pays the link's round trip (the handshake the
    analytic :meth:`~repro.net.link.Link.transfer_time` charges).
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), connect_timeout_s
    )
    stream = ShapedStream(reader, writer, link=link, time_scale=time_scale)
    if link is not None and link.rtt_s > 0:
        stream.modelled_tx_s += link.rtt_s
        if time_scale > 0:
            await asyncio.sleep(link.rtt_s * time_scale)
    return stream
