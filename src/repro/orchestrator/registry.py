"""Registry/heartbeat service: who is alive and what do they hold.

The controller registers each daemon's address once and then *polls*:
a heartbeat sends a HEARTBEAT frame on the ordinary migration port and
reads back one INVENTORY frame (the daemon's open sessions and a sketch
of every checkpoint it hosts).  Pull-based liveness keeps the daemon
passive — it answers probes exactly like it answers HELLOs — and makes
restart recovery automatic: a daemon that comes back with a durable
``state_dir`` rebuilds its checkpoints from the repository, so the next
successful heartbeat repopulates the controller's view without any
re-registration protocol.

Heartbeats and telemetry polls to one daemon share one kept-alive
*control channel*: the first probe opens it, later probes reuse it, and
the daemon closes it after its ``io_timeout_s`` of idleness.  A channel
already seen closed when the next probe starts is replaced without a
word; a probe that fails on a live channel fails exactly as a fresh
connection would (counted, not retried) and the channel goes with it.

A host that misses a heartbeat is marked dead but stays registered;
polling continues and a later success revives it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs import names
from repro.obs.log import get_logger
from repro.obs.trace import span as _span
from repro.orchestrator.inventory import ClusterView, HostInventory
from repro.runtime.frames import FRAME_NAMES, Frame, FrameCodec, FrameError, step
from repro.runtime.shaping import ShapedStream, open_shaped_connection

log = get_logger(__name__)

_HEARTBEAT = FrameCodec().encode_heartbeat({})
"""A heartbeat's one frame; every probe sends these same bytes."""

PROBE_ERRORS = (FrameError, ConnectionError, TimeoutError, OSError, EOFError)
"""What a probe that got no usable answer raises: a silent, gone or
garbled daemon.  Callers mark the host and move on."""


@dataclass
class HostRecord:
    """One registered daemon and the freshest facts about it."""

    name: str
    host: str
    port: int
    alive: bool = False
    consecutive_failures: int = 0
    inventory: Optional[HostInventory] = None


class ClusterRegistry:
    """Tracks daemon liveness and checkpoint inventories by polling.

    Args:
        controller_id: The controller's own name: it labels the
            controller's section of the merged Prometheus page and the
            ``vecycle top`` dashboard.
        heartbeat_timeout_s: Per-probe I/O budget, heartbeat or
            telemetry poll alike; a silent daemon is declared dead after
            this long, never hung on.
    """

    def __init__(
        self,
        controller_id: str = "controller",
        heartbeat_timeout_s: float = 5.0,
    ) -> None:
        self.controller_id = controller_id
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._records: Dict[str, HostRecord] = {}
        self._channels: Dict[str, ShapedStream] = {}
        self.probe_fault: Optional[Callable[[str], bool]] = None
        """Fault point for the :mod:`repro.chaos` plane: called with the
        host name before each heartbeat; returning True drops the probe
        (the host looks dead until a later poll revives it)."""

    # --- membership -----------------------------------------------------

    def register(self, name: str, host: str, port: int) -> HostRecord:
        """Add (or re-address) a daemon; liveness starts unknown.  A new
        address drops the control channel to the old one."""
        old = self._records.get(name)
        if old is not None and (old.host, old.port) != (host, port):
            stream = self._channels.pop(name, None)
            if stream is not None:
                stream.abort()
        record = HostRecord(name=name, host=host, port=port)
        self._records[name] = record
        return record

    def record(self, name: str) -> HostRecord:
        """The registration record for ``name``; KeyError if unknown."""
        try:
            return self._records[name]
        except KeyError:
            raise KeyError(f"unregistered host {name!r}") from None

    def hosts(self) -> List[str]:
        """All registered host names, sorted."""
        return sorted(self._records)

    def address_of(self, name: str) -> tuple:
        """The ``(host, port)`` migrations to ``name`` should dial."""
        record = self.record(name)
        return record.host, record.port

    # --- polling --------------------------------------------------------

    async def poll(self, name: str) -> HostRecord:
        """Heartbeat one daemon; updates and returns its record."""
        record = self.record(name)
        with _span("orchestrator.heartbeat", host=name) as hb_span:
            try:
                if self.probe_fault is not None and self.probe_fault(name):
                    raise ConnectionError(f"heartbeat to {name} dropped (injected)")
                frame = await self.probe(record, _HEARTBEAT)
                inventory = HostInventory.from_report(frame.body)
            except PROBE_ERRORS as exc:
                record.alive = False
                record.consecutive_failures += 1
                hb_span.set(alive=False, cause=type(exc).__name__)
                names.ORCHESTRATOR_HEARTBEATS_FAILED.add(1)
                log.warning(
                    "heartbeat failed",
                    host=name,
                    failures=record.consecutive_failures,
                    cause=str(exc),
                )
                return record
            record.alive = True
            record.consecutive_failures = 0
            record.inventory = inventory
            hb_span.set(
                alive=True,
                checkpoints=len(inventory.checkpoints),
                active_sessions=inventory.active_sessions,
            )
            names.ORCHESTRATOR_HEARTBEATS_OK.add(1)
            return record

    async def probe(self, record: HostRecord, request: bytes) -> Frame:
        """The controller's one request/reply client: send the one
        ``request`` frame on the host's control channel, read the one
        frame :data:`~repro.core.protocol.SESSION` says answers it back,
        keep the channel for the next probe.

        A channel already seen closed before the request goes out (the
        daemon idled it out, or restarted) is replaced by a fresh
        connection.  Past that, nothing is retried: a daemon that does
        not answer raises one of :data:`PROBE_ERRORS` and its channel is
        closed.  Every step is bounded by ``heartbeat_timeout_s``.
        """
        stream = self._channels.pop(record.name, None)
        if stream is not None and stream.at_eof():
            await stream.close()
            stream = None
        try:
            if stream is None:
                stream = await open_shaped_connection(
                    record.host,
                    record.port,
                    link=None,
                    time_scale=0.0,
                    connect_timeout_s=self.heartbeat_timeout_s,
                )
                stream.close_on_eof()
            await stream.send(request)
            recv = stream.recv_with_timeout(self.heartbeat_timeout_s)
            reply, _ = await step(FrameCodec(), recv, "probe", FRAME_NAMES[request[0]])
        except BaseException:
            if stream is not None:
                await stream.close()
            raise
        if self._records.get(record.name) is record and record.name not in self._channels:
            self._channels[record.name] = stream
        else:
            # Re-registered meanwhile, or a concurrent probe kept its own.
            await stream.close()
        return reply

    async def close(self) -> None:
        """Close every control channel (a later probe opens a new one).

        A channel belongs to the event loop that opened it: close the
        registry before that loop ends.
        """
        channels, self._channels = self._channels, {}
        for stream in channels.values():
            await stream.close()

    async def poll_all(self) -> ClusterView:
        """Heartbeat every registered daemon, all at once; returns the
        live view.  Each probe rides its own host's control channel, so
        the probes share one wait instead of queueing behind each other."""
        await asyncio.gather(*map(self.poll, self.hosts()))
        view = self.view()
        names.ORCHESTRATOR_HOSTS_ALIVE.set(len(view.inventories))
        return view

    # --- the merged picture ---------------------------------------------

    def view(self) -> ClusterView:
        """The cluster as of the last polls: live hosts' inventories."""
        return ClusterView(
            inventories={
                name: record.inventory
                for name, record in self._records.items()
                if record.alive and record.inventory is not None
            }
        )
