"""Traffic-shaped asyncio streams.

The paper's testbed pins down two environments — the gigabit LAN and a
``netem``-emulated CloudNet WAN (§4.1/§4.4).  :class:`ShapedStream` is
the in-process equivalent of that ``netem`` box: it is the connection's
asyncio protocol and paces writes so one connection experiences exactly
the :class:`~repro.net.link.Link` cost model the analytic path uses —
connection setup pays one RTT, serialization runs at
``link.effective_bandwidth`` (which already encodes the TCP window/RTT
ceiling that makes the emulated WAN ~6 MiB/s despite its 465 Mbit/s
line rate).

Runs are reproducible because the delays derive from the deterministic
link model, not from kernel scheduling: the same scenario over
``lan-1gbe`` and ``wan-cloudnet`` differs by the modelled factor.  A
``time_scale`` below 1 compresses the sleeps for tests and demos while
the *modelled* clock keeps full-scale seconds; ``time_scale=0`` keeps
the accounting but never sleeps.

Receiving copies a byte once.  The stream is an
:class:`asyncio.BufferedProtocol`: the transport's ``recv_into`` lands
in the free tail of one ``bytearray`` arena the stream owns,
:meth:`ShapedStream.peek` is a ``memoryview`` of what has arrived and
:meth:`ShapedStream.consume` moves an offset.  A reader copies what it
keeps (a page, a digest, a control frame) out of the arena itself; the
unconsumed remainder — at most one partial frame on the page path — is
moved to the front only when the tail reaches the arena's end.  The
arena sizes itself: it starts at :data:`_ARENA_START_BYTES`, so a
heartbeat or telemetry probe never pays for a bulk buffer, grows while
socket reads keep filling what they were offered, up to
:data:`_ARENA_SOFT_CAP_BYTES`, and past that only to hold one frame a
reader asked for.

Backpressure is real, not modelled, in both directions: every send
waits while the transport is over its write high-water mark, so a slow
receiver stalls the sender through the kernel socket buffers; and an
arena that is full with no reader waiting on it pauses reading, so a
consumer that stops consuming bounds this side's memory and fills those
same socket buffers.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

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

_ARENA_START_BYTES = 4 * 1024
"""A new connection's receive arena: enough for a control exchange."""

_ARENA_SOFT_CAP_BYTES = 256 * 1024
"""How far the arena grows on its own (measured: a 1 MiB arena moved
``full_churn`` slower than this one — it falls out of cache).  This is
therefore also the most page data the daemon applies between two awaits,
and the most a sink runs past its write-behind limit."""


class ShapedStream(asyncio.BufferedProtocol):
    """One connection: link-model pacing, byte accounting, a receive arena.

    Pass a factory for it to ``loop.create_connection`` /
    ``loop.create_server`` (:func:`open_shaped_connection` does the
    former); the stream is usable once the loop has called
    :meth:`connection_made`.

    Args:
        link: Cost model to enforce on writes; None disables shaping
            (loopback-fast, still counted).
        time_scale: Multiplier on real sleeps.  1.0 reproduces modelled
            wall time, 0.0 disables sleeping entirely; either way
            :attr:`modelled_tx_s` advances by the full modelled amount.
        on_connect: Called with the stream from :meth:`connection_made`
            — how a server learns of an accepted connection.
    """

    def __init__(
        self,
        link: Optional[Link] = None,
        time_scale: float = 1.0,
        on_connect: Optional[Callable[["ShapedStream"], None]] = None,
    ) -> None:
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        self.link = link
        self.time_scale = time_scale
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.modelled_tx_s = 0.0
        self._debt_s = 0.0
        self._on_connect = on_connect
        self._transport: Optional[asyncio.Transport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed: Optional[asyncio.Future] = None
        # Received bytes are _arena[_head:_tail]; the transport writes at
        # _tail, readers consume from _head.
        self._arena = bytearray(_ARENA_START_BYTES)
        self._head = 0
        self._tail = 0
        self._reading_paused = False
        self._eof = False
        self._half_open = True
        self._lost = False
        self._error: Optional[BaseException] = None
        self._read_waiter: Optional[asyncio.Future] = None
        self._writing_paused = False
        self._drain_waiter: Optional[asyncio.Future] = None

    # --- protocol callbacks (called by the event loop; none may block) ---

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        """The loop attached the transport: the stream is live."""
        self._transport = transport
        self._loop = asyncio.get_running_loop()
        self._closed = self._loop.create_future()
        transport.set_write_buffer_limits(high=_WRITE_BUFFER_LIMIT)
        if self._on_connect is not None:
            self._on_connect(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        """The arena's free tail, for the transport's ``recv_into``."""
        size = len(self._arena)
        if self._tail == size:
            # Normally there is a consumed prefix to reclaim.  Full from
            # the front means the reader woken for the last read left
            # without consuming (cancelled, say): one more arena's worth,
            # and buffer_updated pauses if that fills too.
            self._compact(size if self._head else 2 * size)
        return memoryview(self._arena)[self._tail :]

    def buffer_updated(self, nbytes: int) -> None:
        """``nbytes`` arrived at the tail: account, size the arena, wake."""
        self._tail += nbytes
        size = len(self._arena)
        if self._tail == size:
            # The read took all it was offered, so more was waiting.
            # Deciding on the read, not on an arena full from the front,
            # is what lets it grow under a consumer that keeps up.
            if size < _ARENA_SOFT_CAP_BYTES:
                self._compact(min(2 * size, _ARENA_SOFT_CAP_BYTES))
            elif self._head == 0 and self._read_waiter is None:
                # Full, and nobody is about to make room.  (A waiting
                # reader runs before the loop polls the socket again;
                # pausing under it would cost two epoll_ctl per arena.)
                self._reading_paused = True
                self._transport.pause_reading()
        self._wake(self._read_waiter)

    def eof_received(self) -> bool:
        """The peer finished writing; keep our half open, as streams do,
        unless :meth:`close_on_eof` said otherwise."""
        self._eof = True
        self._wake(self._read_waiter)
        return self._half_open

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """The transport is gone: fail whoever waits on it."""
        self._eof = self._lost = True
        self._error = exc
        self._wake(self._read_waiter)
        self._wake(self._drain_waiter)
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        """The transport's write buffer passed its high-water mark."""
        self._writing_paused = True

    def resume_writing(self) -> None:
        """The write buffer drained below its low-water mark."""
        self._writing_paused = False
        self._wake(self._drain_waiter)

    @staticmethod
    def _wake(waiter: Optional[asyncio.Future]) -> None:
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _compact(self, size: int) -> None:
        """Move the unconsumed bytes to the front of an arena of ``size``
        bytes — this one when it already is that big, else a new one (a
        ``peek`` view handed out earlier pins the old one's size)."""
        held = self._tail - self._head
        unconsumed = memoryview(self._arena)[self._head : self._tail]
        if size == len(self._arena) and held <= self._head:
            self._arena[:held] = unconsumed
        else:
            arena = bytearray(size)
            arena[:held] = unconsumed
            self._arena = arena
        self._head, self._tail = 0, held
        if self._reading_paused:
            self._reading_paused = False
            self._transport.resume_reading()

    # --- sending ----------------------------------------------------------

    async def send(self, data: bytes) -> None:
        """Write ``data``, pacing to the link model and draining.

        Shaped writes hit the transport in :data:`_PACING_CHUNK_BYTES`
        pieces with the pacing sleeps interleaved, so a large frame's
        serialization delay is something the *receiver* experiences,
        not just a sleep the sender takes after the fact.
        """
        if self.link is None:
            self._transport.write(data)
            self.tx_bytes += len(data)
            await self._drain()
            return
        view = memoryview(data)
        for start in range(0, len(view), _PACING_CHUNK_BYTES):
            chunk = view[start : start + _PACING_CHUNK_BYTES]
            self._transport.write(chunk)
            self.tx_bytes += len(chunk)
            delay = self.link.serialization_delay(len(chunk))
            self.modelled_tx_s += delay
            self._debt_s += delay
            if self._debt_s >= _PACING_QUANTUM_S:
                owed, self._debt_s = self._debt_s, 0.0
                if self.time_scale > 0:
                    await asyncio.sleep(owed * self.time_scale)
        await self._drain()

    async def _drain(self) -> None:
        """Wait out the transport's write high-water mark.

        A transport error raises here, as does writing to a connection
        that is gone — the rules of asyncio's own stream ``drain()``.
        """
        if self._transport.is_closing():
            # Yield once so a connection_lost already queued is seen.
            await asyncio.sleep(0)
        if self._writing_paused and not self._lost:
            waiter = self._drain_waiter = self._loop.create_future()
            try:
                await waiter
            finally:
                self._drain_waiter = None
        if self._lost:
            raise self._error or ConnectionResetError("Connection lost")

    # --- receiving --------------------------------------------------------

    async def fill(self, timeout_s: Optional[float] = None) -> None:
        """Wait for the next socket read to land in the arena.

        Raises ``IncompleteReadError`` on EOF (the transport's own
        exception if it failed) and ``asyncio.TimeoutError`` after
        ``timeout_s`` of silence, so a silent peer cannot hang a
        migration.  The caller has seen all there is (nothing arrives
        between two awaits), so a full arena is one it found too small:
        it doubles, whatever the soft cap says.
        """
        if self._eof:
            raise self._error or asyncio.IncompleteReadError(bytes(self.peek()), None)
        if self._head == 0 and self._tail == len(self._arena):
            self._compact(2 * len(self._arena))
        waiter = self._read_waiter = self._loop.create_future()
        timer = (
            None
            if timeout_s is None
            else self._loop.call_later(timeout_s, self._expire, waiter)
        )
        try:
            await waiter
        finally:
            self._read_waiter = None
            if timer is not None:
                timer.cancel()

    @staticmethod
    def _expire(waiter: asyncio.Future) -> None:
        if not waiter.done():
            waiter.set_exception(asyncio.TimeoutError())

    def peek(self) -> memoryview:
        """Everything received and not yet consumed, without a copy.

        The view is of the arena itself: it is good until the next
        ``await`` on this stream, and what is to be kept is copied out.
        """
        return memoryview(self._arena)[self._head : self._tail]

    def consume(self, num_bytes: int) -> None:
        """Drop ``num_bytes`` from the front of the received bytes."""
        self._head += num_bytes
        self.rx_bytes += num_bytes
        if self._head == self._tail:
            self._head = self._tail = 0
        if self._reading_paused:
            self._compact(len(self._arena))

    async def recv(
        self, num_bytes: int, timeout_s: Optional[float] = None
    ) -> bytes:
        """Read exactly ``num_bytes`` (raises ``IncompleteReadError`` on EOF).

        The bytes are copied off the front of the arena; the event loop
        is touched only while fewer have arrived, and ``timeout_s``
        bounds each such wait.  A frame larger than the arena gets an
        arena of its size up front, so it is never stalled by the cap.
        """
        if len(self._arena) - self._head < num_bytes:
            self._compact(max(num_bytes, len(self._arena)))
        while self._tail - self._head < num_bytes:
            await self.fill(timeout_s)
        data = bytes(memoryview(self._arena)[self._head : self._head + num_bytes])
        self.consume(num_bytes)
        return data

    def recv_with_timeout(self, timeout_s: Optional[float]):
        """A ``recv``-shaped callable enforcing a per-socket-read timeout."""

        async def recv(num_bytes: int) -> bytes:
            return await self.recv(num_bytes, timeout_s)

        return recv

    def at_eof(self) -> bool:
        """True once the peer has finished writing or the connection is gone."""
        return self._eof

    def close_on_eof(self) -> None:
        """Close this side too as soon as the peer finishes writing.

        For a connection that idles between request/reply exchanges: no
        reader is waiting there to notice the peer leave, so without
        this its half would stay open until someone closed it.
        """
        self._half_open = False
        if self._eof and not self._lost:
            self._transport.close()

    def abort(self) -> None:
        """Tear the connection down immediately (fault injection)."""
        self._transport.abort()

    async def close(self) -> None:
        """Close the transport and wait until the loop has let go of it."""
        self._transport.close()
        await self._closed


async def open_shaped_connection(
    host: str,
    port: int,
    link: Optional[Link] = None,
    time_scale: float = 1.0,
    connect_timeout_s: Optional[float] = None,
) -> ShapedStream:
    """Connect to ``host:port``; the connection's protocol is the returned
    :class:`ShapedStream`.

    Connection setup pays the link's round trip (the handshake the
    analytic :meth:`~repro.net.link.Link.transfer_time` charges).
    """
    loop = asyncio.get_running_loop()
    _, stream = await asyncio.wait_for(
        loop.create_connection(
            lambda: ShapedStream(link=link, time_scale=time_scale), host, port
        ),
        connect_timeout_s,
    )
    if link is not None and link.rtt_s > 0:
        stream.modelled_tx_s += link.rtt_s
        if time_scale > 0:
            await asyncio.sleep(link.rtt_s * time_scale)
    return stream
