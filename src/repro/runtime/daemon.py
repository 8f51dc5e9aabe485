"""The per-host checkpoint daemon: the receiving end of live migrations.

One :class:`CheckpointDaemon` plays the role a VeCycle-enabled
hypervisor host plays in the paper's prototype (§4.1): it keeps a
checkpoint for every VM that ever left it, serves the §3.2 bulk
checksum announce to incoming migration sources, hands each one's page
stream to a sink session (:mod:`repro.runtime.sink`) that merges it per
Listing 1 and verifies the final image, and stores the result as the
next checkpoint — which is what makes back-to-back ping-pong migrations
recycle state.  This module is the daemon alone: its lifecycle, its
connections and the session protocol.

Pages live in one host-wide content-addressed store
(:class:`~repro.mem.pagestore.ContentAddressedStore`), so checkpoints
of many VMs share storage for common pages and any announced checksum
resolves to bytes in O(1).

Robustness: sessions survive connection loss.  A source that reconnects
with the same session token gets told exactly how far the previous
attempt got (round number + messages applied) and resumes from there;
a completed session replays its RESULT idempotently.  Test hooks can
inject mid-transfer disconnects to exercise exactly that path.

Durability: give the daemon a ``state_dir`` and every committed
checkpoint (and completed session result) survives a daemon restart —
``kill -9`` included.  Pages are appended to the packs of a
:class:`~repro.storage.repository.CheckpointRepository` as they arrive
(write-behind, :mod:`repro.runtime.persist`),
the per-checkpoint manifest commits atomically on RESULT, and startup
recovery rebuilds the hosted checkpoints and checksum state from the
manifests, quarantining (never crashing on) corrupt entries.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.checksum import DEFAULT_CHECKSUM, ChecksumAlgorithm, get_algorithm
from repro.core.fingerprint import Fingerprint
from repro.core.protocol import WireFormat
from repro.core.transfer import Method
from repro.mem.pagestore import ContentAddressedStore, PageStore
from repro.net.link import Link
from repro.obs import names
from repro.obs.flight import FlightRecorder
from repro.obs.log import get_logger
from repro.obs.telemetry import TelemetrySource
from repro.obs.trace import span as _span
from repro.storage.repository import CheckpointManifest, CheckpointRepository
from repro.runtime.faults import FaultInjector
from repro.runtime.frames import (
    Frame,
    FrameCodec,
    FrameError,
    PAGE_FRAME_TYPES,
    StreamDesyncError,
    TYPE_COMPLETE,
    TYPE_ERROR,
    TYPE_HEARTBEAT,
    TYPE_HELLO,
    TYPE_ROUND,
    TYPE_TELEMETRY,
)
from repro.runtime.hosted import HostedCheckpoint
from repro.runtime.persist import _WriteBehind
from repro.runtime.shaping import ShapedStream
from repro.runtime.sink import SinkProtocolError, _SinkSession

log = get_logger(__name__)

_MAX_RETAINED_SESSIONS = 64
"""Soft cap on retained sessions: completed ones are evicted oldest
first; *live* sessions are never evicted (the reconnect/resume
guarantee), so the dict may grow past this under extreme concurrency."""


class CheckpointDaemon:
    """Asyncio TCP server hosting checkpoints and receiving migrations.

    Args:
        name: Host label, used in logs and metrics.
        link: Traffic shaping for the daemon's sends (the announce and
            result travel destination → source); None for unshaped.
        time_scale: See :class:`~repro.runtime.shaping.ShapedStream`.
        io_timeout_s: Per-read timeout; a stalled source cannot wedge a
            handler task forever.
        pagestore: Deterministic id → bytes expander used to preload
            checkpoints installed from fingerprints.
        state_dir: Durable state directory.  When set, checkpoints and
            completed session results are persisted through a
            :class:`~repro.storage.repository.CheckpointRepository`
            rooted there and recovered on construction — a daemon
            restart keeps every committed checkpoint.

    Every instrument the daemon and its write-behind count lives in its
    own :class:`~repro.obs.telemetry.TelemetrySource`, read over
    TELEMETRY — so co-hosted daemons in one process stay separable.
    """

    def __init__(
        self,
        name: str = "host",
        link: Optional[Link] = None,
        time_scale: float = 1.0,
        io_timeout_s: float = 30.0,
        pagestore: Optional[PageStore] = None,
        state_dir: Optional[Path | str] = None,
    ) -> None:
        self.name = name
        self.link = link
        self.time_scale = time_scale
        self.io_timeout_s = io_timeout_s
        self.pagestore = pagestore or PageStore()
        repository = self.repository = (
            CheckpointRepository(state_dir) if state_dir is not None else None
        )
        self.telemetry = TelemetrySource(name)
        # Write-behind persistence: incoming pages spill to the
        # repository through a bounded queue, drained before any commit
        # point.
        self._persist = (
            _WriteBehind(repository, self.telemetry.registry)
            if repository is not None
            else None
        )
        self.store = ContentAddressedStore(
            repository=repository,
            spill=self._persist.defer if self._persist is not None else None,
        )
        self.checkpoints: Dict[str, HostedCheckpoint] = {}
        # Per-VM checkpoint generation counters: a source that names the
        # current one in HELLO skips the announce.
        self._generations: Dict[str, int] = {}
        self._sessions: "OrderedDict[str, _SinkSession]" = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Set[asyncio.Task] = set()
        # Consulted at every injectable protocol point; the default
        # never fires.  Tests and the chaos soak assign an armed one (one
        # instance may be shared by several daemons, which makes its
        # budgets cluster-wide).
        self.faults = FaultInjector()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.flight = FlightRecorder(f"daemon-{name}", self.telemetry.registry)
        if self.repository is not None:
            self._recover()

    def _count(self, counter: names.CounterName, amount: float = 1.0) -> None:
        """Increment a counter in this daemon's telemetry registry."""
        counter.on(self.telemetry.registry).add(amount)

    def _recover(self) -> None:
        """Rebuild hosted checkpoints and sessions from the repository.

        Record digests are verified during recovery; corrupt entries
        are quarantined by the repository, so a damaged checkpoint costs
        that checkpoint only and the daemon still starts.
        """
        report = self.repository.recover()
        for manifest in report.checkpoints:
            digests = list(manifest.slot_digests)
            self.store.retain_many(digests)
            self.checkpoints[manifest.vm_id] = HostedCheckpoint(
                vm_id=manifest.vm_id,
                slot_digests=digests,
                algorithm=get_algorithm(manifest.algorithm),
                timestamp=manifest.timestamp,
                generation=manifest.generation,
            )
            # Generations resume where the manifest left off.
            self._generations[manifest.vm_id] = manifest.generation
        for session_id, payload in report.sessions.items():
            self._sessions[session_id] = _SinkSession.restore(
                session_id, self.store, payload
            )
        if report.recovered or report.sessions:
            log.info(
                "recovered durable state",
                host=self.name,
                checkpoints=report.recovered,
                sessions=len(report.sessions),
                quarantined=len(report.quarantined),
            )

    # --- lifecycle ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and listen; returns the (host, port) actually bound."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: ShapedStream(
                link=self.link, time_scale=self.time_scale,
                on_connect=self._spawn_handler,
            ),
            host, port,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening and drop connection handlers.

        Handlers still serving a connection (an idle control channel, or
        an injected stall) are cancelled and awaited, so a stopped daemon
        leaves no task behind to spill a ``CancelledError`` into the
        event loop's exception handler after the fact.  That happens
        before waiting for the server to close, which on newer Pythons
        waits for every connection it accepted.
        """
        if self._server is not None:
            self._server.close()
        if self._handlers:
            for task in list(self._handlers):
                task.cancel()
            await asyncio.gather(*self._handlers, return_exceptions=True)
            self._handlers.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._persist is not None:
            await self._persist.close()
            self.repository.close()

    async def __aenter__(self) -> "CheckpointDaemon":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # --- checkpoint hosting --------------------------------------------

    def install_checkpoint(
        self,
        vm_id: str,
        fingerprint: Fingerprint,
        algorithm: ChecksumAlgorithm = DEFAULT_CHECKSUM,
    ) -> HostedCheckpoint:
        """Host a checkpoint given as a fingerprint (demo/test setup).

        Materializes each distinct content once into the shared content
        store — the runtime equivalent of the destination's sequential
        checkpoint read that hashes every block (§3.3).  Digests come
        from the batched :meth:`~repro.mem.pagestore.PageStore.digests_for`
        path, so a duplicate-heavy image hashes its distinct contents
        once instead of paying a cache probe per slot.
        """
        hashes = np.asarray(fingerprint.hashes, dtype=np.uint64)
        slot_digests = self.pagestore.digests_for(hashes, algorithm)
        uniques, first_pos = np.unique(hashes, return_index=True)
        for content_id, slot in zip(uniques.tolist(), first_pos.tolist()):
            digest = slot_digests[slot]
            if digest not in self.store:
                self.store.put(digest, self.pagestore.page_bytes(content_id))
        return self._adopt_checkpoint(
            vm_id,
            slot_digests,
            algorithm=algorithm,
            timestamp=fingerprint.timestamp,
            page_size=self.pagestore.page_size,
        )

    def _adopt_checkpoint(
        self,
        vm_id: str,
        slot_digests: List[bytes],
        algorithm: ChecksumAlgorithm,
        timestamp: Optional[float] = None,
        page_size: int = 4096,
        session: Optional[_SinkSession] = None,
    ) -> HostedCheckpoint:
        """Install ``slot_digests`` as the VM's hosted checkpoint.

        The list becomes the checkpoint's own (callers pass one nobody
        will mutate).  With a repository the manifest commits first —
        any write-behind backlog is flushed before it, so every page the
        manifest references is on disk before the rename, still the
        single commit point — and only then does memory change: a commit
        that raises leaves the hosted map, the references and ``session``
        as they were.  The checkpoint then takes one content-store
        reference per slot: freshly, or from ``session`` — a verified
        COMPLETE hands over the ones it owns and, over its own base, the
        base's for every slot it did not rewrite.  Sessions still
        borrowing the replaced checkpoint retain what they borrowed, the
        replaced checkpoint's remaining references are released and the
        VM's generation counter is bumped.  An image adopted unchanged
        over its base keeps the base's derived views and moves no
        reference.
        """
        if timestamp is None:
            timestamp = time.time()
        if self._persist is not None:
            self.store.flush_spill()
            self._persist.flush_sync()
        previous = self.checkpoints.get(vm_id)
        hosted = HostedCheckpoint(
            vm_id=vm_id,
            slot_digests=slot_digests,
            algorithm=algorithm,
            timestamp=timestamp,
            generation=self._generations.get(vm_id, 0) + 1,
        )
        inherits = session is not None and previous is not None and (
            session.base is previous
        )
        if inherits and session.pristine:
            hosted.inherit_views(previous)
        if self.repository is not None:
            self.repository.commit_checkpoint(
                CheckpointManifest(
                    vm_id=vm_id,
                    slot_digests=slot_digests,
                    algorithm=algorithm.name,
                    page_size=page_size,
                    timestamp=timestamp,
                    generation=hosted.generation,
                ),
                distinct=hosted.distinct,
                refill=self._respill,
            )
            # The replaced checkpoint's records are dead: the writer thread compacts.
            self._persist.defer(compact=True)
        if previous is not None:
            self._unborrow(previous, keep=session)
        if inherits:
            released = session.hand_over()
        else:
            if session is not None:
                session.hand_over()
            else:
                self.store.retain_many(slot_digests)
            released = previous.slot_digests if previous is not None else []
        self.checkpoints[vm_id] = hosted
        self._generations[vm_id] = hosted.generation
        self.store.release_many(released)
        return hosted

    def _respill(self, digest: bytes) -> Optional[bytes]:
        """A resident page for a record the repository lacks.

        A verify() scrub may have quarantined records an image still
        references (the write-behind queue only carries *new* content),
        and a commit refuses a manifest with missing records: the commit
        re-spills what is still resident.  Content resident nowhere stays
        missing and the commit raises — correct: the daemon genuinely
        lost it.
        """
        page = self.store.get(digest)
        if page is not None:
            self._count(names.DAEMON_RESPILLED_SEGMENTS)
        return page

    def _unborrow(
        self, hosted: HostedCheckpoint, keep: Optional[_SinkSession] = None
    ) -> None:
        """``hosted`` is about to be replaced or dropped: every session
        borrowing it but ``keep`` retains what it borrowed first."""
        for session in self._sessions.values():
            if session.base is hosted and session is not keep:
                session.own_borrowed()

    def drop_checkpoint(self, vm_id: str) -> int:
        """Stop hosting ``vm_id``'s checkpoint; free its last-owner pages.

        Returns the number of bytes actually released (durable payload
        bytes when a repository is attached, plus resident bytes), so a
        dropped checkpoint leaks no content-store entry.
        """
        hosted = self.checkpoints.pop(vm_id, None)
        if hosted is None:
            return 0
        # The generation counter deliberately survives — restarting at 1
        # after a re-adoption would let a stale source claim an old
        # generation number against a different digest set and earn a
        # bogus verified skip.
        self._unborrow(hosted)
        freed = self.store.release_many(hosted.slot_digests)
        if self.repository is not None:
            # Resident and durable bytes are distinct pools; reclaiming
            # the checkpoint frees both, so report both.
            freed += self.repository.delete_checkpoint(vm_id)
        return freed

    def audit_store(self) -> List[str]:
        """Cross-check content-store refcounts against their owners.

        Every reference in the store must be explainable by exactly one
        owner slot: a hosted checkpoint's slot or a slot a non-retired
        session owns (a slot it still borrows from its base is the
        base's).  A digest with more references than owners is a leak
        (stored bytes that can never be reclaimed); fewer is a double
        release (bytes that may vanish under a live owner).  A session
        borrowing a checkpoint the daemon no longer hosts is a violation
        too: its slots rest on references nobody holds.  Returns
        human-readable violation strings, empty when clean — the
        content-store invariant of the :mod:`repro.chaos` plane.
        """
        expected: Dict[bytes, int] = {}
        for hosted in self.checkpoints.values():
            for digest in hosted.slot_digests:
                expected[digest] = expected.get(digest, 0) + 1
        violations = []
        for session in self._sessions.values():
            base = session.base
            if base is not None and self.checkpoints.get(base.vm_id) is not base:
                violations.append(
                    f"{self.name}: session {session.session_id} borrows a "
                    "checkpoint that is no longer hosted"
                )
            for digest in session.owned_digests():
                expected[digest] = expected.get(digest, 0) + 1
        actual = {d: n for d, n in self.store.refcounts().items() if n > 0}
        for digest, count in sorted(expected.items()):
            have = actual.pop(digest, 0)
            if have != count:
                kind = "leak" if have > count else "double-release"
                violations.append(
                    f"{self.name}: {kind} on {digest.hex()[:12]}: "
                    f"{have} refs for {count} owner slot(s)"
                )
        for digest, have in sorted(actual.items()):
            violations.append(
                f"{self.name}: leak on {digest.hex()[:12]}: "
                f"{have} refs with no owner"
            )
        return violations

    def checkpoint_digests(self, vm_id: str) -> Optional[frozenset]:
        """Distinct checksums of the hosted checkpoint (ping-pong state)."""
        hosted = self.checkpoints.get(vm_id)
        return hosted.distinct if hosted is not None else None

    def inventory_report(self) -> dict:
        """JSON body answering a HEARTBEAT: the open sessions and, by
        vm_id, every hosted checkpoint's similarity sketch — exactly the
        hosted map, the checkpoints a migration here can recycle.  Read
        from each checkpoint's cached view, so between adoptions it
        walks no image's digests and reads nothing from the repository."""
        return {
            "active_sessions": sum(
                1 for s in self._sessions.values() if not s.completed
            ),
            "checkpoints": {
                vm_id: self.checkpoints[vm_id].sketch
                for vm_id in sorted(self.checkpoints)
            },
        }

    # --- connection handling -------------------------------------------

    def _spawn_handler(self, stream: ShapedStream) -> None:
        """An accepted connection is live: serve it in a task of its own."""
        task = asyncio.get_running_loop().create_task(self._on_connection(stream))
        self._handlers.add(task)
        task.add_done_callback(self._handler_done)

    def _handler_done(self, task: asyncio.Task) -> None:
        self._handlers.discard(task)
        exc = None if task.cancelled() else task.exception()
        if exc is not None:
            task.get_loop().call_exception_handler({
                "message": f"unhandled exception serving a connection to {self.name}",
                "exception": exc,
                "task": task,
            })

    async def _on_connection(self, stream: ShapedStream) -> None:
        try:
            await self._serve_session(stream)
        except asyncio.CancelledError:
            # The daemon is stopping underneath this connection; the
            # close below is the entire remaining obligation.
            pass
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            TimeoutError,
            asyncio.TimeoutError,
            OSError,
        ):
            # Transport failure: keep the session for a resuming source.
            pass
        except (SinkProtocolError, FrameError) as exc:
            self.flight.note(
                "daemon.error",
                code=getattr(exc, "code", "protocol"),
                message=getattr(exc, "detail", str(exc)),
            )
            await self._send_error(stream, exc)
        finally:
            await stream.close()

    async def _send_ready(self, stream: ShapedStream, payload: bytes) -> None:
        """Send a READY frame, applying any planned stall/truncation fault."""
        stall = self.faults.take_ready_stall()
        if stall > 0:
            self._count(names.DAEMON_INJECTED_STALLS)
            await asyncio.sleep(stall)
        cut = self.faults.take_ready_truncation()
        if cut > 0:
            # Short READY, connection kept alive: the peer's next reads
            # land mid-frame and desync instead of seeing a clean EOF.
            self._count(names.DAEMON_INJECTED_TRUNCATIONS)
            payload = payload[: max(1, len(payload) - cut)]
        await stream.send(payload)

    async def _send_error(self, stream: ShapedStream, exc: Exception) -> None:
        codec = FrameCodec()
        # An unrecognised tag means this side lost frame alignment —
        # report it as "desync" so the peer knows a fresh session (not a
        # resume, and not a bug hunt) is the fix.
        if isinstance(exc, StreamDesyncError):
            code = "desync"
        else:
            code = getattr(exc, "code", "protocol")
        detail = getattr(exc, "detail", str(exc))
        try:
            await stream.send(codec.encode_error({"code": code, "message": detail}))
        except (ConnectionError, OSError) as close_exc:
            # The peer is gone; the ERROR frame is best-effort courtesy.
            # Swallowing is correct — losing the *signal* was not.
            self._count(names.DAEMON_CLOSE_ERRORS)
            log.debug(
                "error frame undeliverable",
                host=self.name,
                code=code,
                cause=f"{type(close_exc).__name__}: {close_exc}",
            )

    def _session_for(self, hello: dict) -> Tuple[_SinkSession, FrameCodec]:
        """The session a HELLO opens or resumes, once its fields check out.

        Every field is validated here, before anything reads it: a
        malformed HELLO is answered with ERROR ``bad-hello``, never with
        an exception out of the handler (which the source would see as
        a dropped link and retry).
        """
        for key in ("session", "vm_id", "num_pages", "mode", "page_size",
                    "digest_size", "algorithm"):
            if key not in hello:
                raise SinkProtocolError("bad-hello", f"missing field {key!r}")
        for key in ("num_pages", "page_size", "digest_size", "base_generation"):
            value = hello.get(key, 0)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise SinkProtocolError(
                    "bad-hello", f"{key} must be a non-negative integer, got {value!r}"
                )
        try:
            method = Method(hello["mode"])
        except ValueError:
            raise SinkProtocolError(
                "bad-mode", f"unknown transfer method {hello['mode']!r}"
            ) from None
        try:
            algorithm = get_algorithm(hello["algorithm"])
        except (KeyError, TypeError):
            raise SinkProtocolError(
                "bad-hello", f"unknown checksum algorithm {hello['algorithm']!r}"
            ) from None
        if algorithm.digest_size != hello["digest_size"]:
            raise SinkProtocolError(
                "bad-hello",
                f"digest size {hello['digest_size']} does not match "
                f"{algorithm.name}",
            )
        wire = WireFormat(
            page_size=hello["page_size"], checksum_bytes=hello["digest_size"]
        )
        codec = FrameCodec(wire)
        session = self._sessions.get(hello["session"])
        if session is None:
            num_pages = hello["num_pages"]
            preload = self._checkpoint_for(hello["vm_id"], algorithm)
            if preload is not None and preload.num_pages != num_pages:
                preload = None
            if method.uses_dirty_tracking and preload is None:
                raise SinkProtocolError(
                    "no-checkpoint",
                    "dirty-tracking migration needs a same-size checkpoint "
                    f"for {hello['vm_id']!r} at this host",
                )
            session = _SinkSession(
                session_id=hello["session"],
                vm_id=hello["vm_id"],
                num_pages=num_pages,
                method=method,
                algorithm=algorithm,
                store=self.store,
                preload=preload,
            )
            session.page_size = hello["page_size"]
            self._sessions[hello["session"]] = session
            self._prune_sessions()
        return session, codec

    def _checkpoint_for(
        self, vm_id: str, algorithm: ChecksumAlgorithm
    ) -> Optional[HostedCheckpoint]:
        """The VM's hosted checkpoint, if ``algorithm`` named its pages.

        A checkpoint of another algorithm is no checkpoint to this
        migration: its digests match nothing the source computes.  So a
        hash method gets an empty announce, never one it cannot match, a
        dirty-tracking method gets ``no-checkpoint``, and the sink never
        preloads slots whose digests the source's COMPLETE cannot agree
        with.  A durable daemon's manifests from before a change of
        default meet exactly this.
        """
        hosted = self.checkpoints.get(vm_id)
        if hosted is None or hosted.algorithm.name != algorithm.name:
            return None
        return hosted

    def _prune_sessions(self) -> None:
        """Retire the oldest *completed* sessions past the soft cap.

        A live (in-progress) session is never evicted — dropping one
        silently breaks the documented reconnect/resume guarantee under
        ≥64 concurrent migrations.  If every retained session is live,
        the map grows past the cap with a warning instead.
        """
        while len(self._sessions) > _MAX_RETAINED_SESSIONS:
            victim_id = next(
                (sid for sid, s in self._sessions.items() if s.completed), None
            )
            if victim_id is None:
                log.warning(
                    "session soft cap exceeded with every session live; "
                    "growing the retention map",
                    host=self.name,
                    sessions=len(self._sessions),
                    cap=_MAX_RETAINED_SESSIONS,
                )
                overflow = len(self._sessions) - _MAX_RETAINED_SESSIONS
                names.DAEMON_SESSIONS_LIVE_OVERFLOW.on(self.telemetry.registry).set(overflow)
                return
            victim = self._sessions.pop(victim_id)
            victim.release_refs()
            if self.repository is not None:
                self.repository.drop_session(victim_id)

    def _plan_announce(self, session: _SinkSession, hello_body: dict) -> bool:
        """Whether the full ANNOUNCE follows READY for this HELLO.

        A source claims to know the checkpoint by naming the generation
        it knows in ``base_generation``; every skip is verified against
        it (any other HELLO field, ``announce_known`` included, is
        ignored).  The announce is skipped only when that is the hosted
        checkpoint's current generation — the §3.3 ping-pong shortcut.
        Any other claim (one behind, evicted, future, after a restart,
        none at all, or no hosted checkpoint of the session's algorithm)
        gets the full ANNOUNCE, which replaces what the source knew.
        """
        if not session.method.uses_hashes or session.announce_acked:
            return False
        hosted = self._checkpoint_for(session.vm_id, session.algorithm)
        if hosted is not None and hello_body.get("base_generation") == hosted.generation:
            self._count(names.DAEMON_ANNOUNCE_SKIPPED)
            return False
        return True

    async def _answer_heartbeat(self, stream: ShapedStream,
                                codec: FrameCodec, hello: Frame) -> None:
        # Control-plane liveness probe: answer with the inventory
        # report — no migration session is created.
        self._count(names.DAEMON_HEARTBEATS)
        await stream.send(codec.encode_inventory(self.inventory_report()))

    async def _answer_telemetry(self, stream: ShapedStream,
                                codec: FrameCodec, hello: Frame) -> None:
        if self.faults.take_telemetry_drop():
            # Telemetry poll loss: tear the probe connection down
            # unanswered.  The aggregator must count a poll failure
            # and carry on; accumulated history must not reset.
            self._count(names.DAEMON_INJECTED_TELEMETRY_DROPS)
            stream.abort()
            return
        # Metrics probe: answer with the next sequence-numbered
        # snapshot — same passive shape as HEARTBEAT.
        self._count(names.DAEMON_TELEMETRY_PROBES)
        body = self.telemetry.snapshot().to_dict()
        await stream.send(codec.encode_telemetry(body))

    async def _drop_peer_error(self, stream: ShapedStream,
                               codec: FrameCodec, hello: Frame) -> None:
        # A peer opened the connection just to report a structured
        # error (e.g. a confused controller).  Replying with our own
        # ERROR would only bounce back at it; log and close instead.
        body = hello.body or {}
        self._count(names.DAEMON_PEER_ERRORS)
        log.warning(
            "peer opened with ERROR frame",
            host=self.name,
            code=body.get("code", "unknown"),
            message=body.get("message", ""),
        )

    async def _serve_session(self, stream: ShapedStream) -> None:
        codec = FrameCodec()
        recv = stream.recv_with_timeout(self.io_timeout_s)
        hello = await codec.read_frame(recv)
        if hello.type == TYPE_ERROR:
            await self._drop_peer_error(stream, codec, hello)
            return
        probes = {
            TYPE_HEARTBEAT: self._answer_heartbeat,
            TYPE_TELEMETRY: self._answer_telemetry,
        }
        if hello.type in probes:
            # A control channel: answer probes until the controller
            # hangs up or leaves it idle for io_timeout_s (both end the
            # read below as a transport failure, closed quietly).
            while hello.type in probes:
                await probes[hello.type](stream, codec, hello)
                hello = await codec.read_frame(recv)
            raise SinkProtocolError(
                "bad-hello", f"{hello.name} on a control channel"
            )
        if hello.type != TYPE_HELLO:
            raise SinkProtocolError("bad-hello", f"expected HELLO, got {hello.name}")
        session, codec = self._session_for(hello.body)
        self.flight.note(
            "session",
            host=self.name,
            vm=session.vm_id,
            session=session.session_id,
            resumed=session.total_applied > 0,
        )
        recv = stream.recv_with_timeout(self.io_timeout_s)
        with _span(
            "daemon.session",
            host=self.name,
            vm=session.vm_id,
            session=session.session_id,
            resumed=session.total_applied > 0,
        ):
            try:
                await self._serve_frames(stream, recv, session, codec, hello)
            except (SinkProtocolError, FrameError):
                # The stream violated the protocol mid-session.  Unlike
                # a transport drop (where the applied counts are exact
                # and a resume is safe), a desynced stream may have
                # applied a frame assembled from misaligned bytes — the
                # session's state can no longer be trusted, so retire
                # it instead of offering a poisoned resume point.  The
                # source starts over with a fresh session id.
                if not session.completed:
                    self._retire_session(session)
                raise

    def _retire_session(self, session: _SinkSession) -> None:
        """Drop a poisoned in-progress session and its content refs."""
        self._sessions.pop(session.session_id, None)
        session.release_refs()
        if self.repository is not None:
            self.repository.drop_session(session.session_id)
        self._count(names.DAEMON_SESSIONS_POISONED)
        self.flight.note(
            "daemon.session_poisoned",
            vm=session.vm_id,
            session=session.session_id,
            applied=session.total_applied,
        )

    async def _receive_pages(
        self, stream: ShapedStream, recv, session: _SinkSession,
        codec: FrameCodec, expected: int,
    ) -> Tuple[int, bool]:
        """Apply one round's ``expected`` page frames, a buffer at a time.

        Each pass decodes and applies every complete page frame the
        stream's receive arena holds — any mix of kinds — and awaits
        only to refill it and, with a repository, once on the
        write-behind throttle.  While an abort is armed a pass stops at
        the frame the abort is due after, so it fires after exactly that
        many applied frames.  Returns ``(received, aborted)``.
        """
        received = 0
        while received < expected:
            budget = expected - received
            due = self.faults.abort_due_in(session.total_applied)
            if due is not None:
                budget = min(budget, max(due, 1))
            data = stream.peek()
            decoded, consumed = codec.decode_pages(data, budget)
            if not decoded:
                if data and data[0] not in PAGE_FRAME_TYPES:
                    # Not a page frame: read_frame tells a control frame
                    # (a protocol violation) from a desync.
                    frame = await codec.read_frame(recv)
                    raise SinkProtocolError(
                        "bad-frame",
                        f"expected a page frame mid-round, got {frame.name}",
                    )
                await stream.fill(self.io_timeout_s)
                continue
            # Decoded fields are copies: the arena's bytes can go.
            stream.consume(consumed)
            session.apply_pages(decoded, codec.page_frame_bytes)
            received += len(decoded)
            if self._persist is not None:
                # The batch's new pages reach the write-behind queue in
                # one call; a full queue becomes socket backpressure.
                self.store.flush_spill()
                await self._persist.throttle()
            if self.faults.take_abort(session.total_applied):
                self._count(names.DAEMON_INJECTED_ABORTS)
                stream.abort()
                return received, True
        return received, False

    async def _serve_frames(
        self, stream: ShapedStream, recv, session: _SinkSession,
        codec: FrameCodec, hello: Frame,
    ) -> None:
        if session.completed:
            self._count(names.DAEMON_RESULT_REPLAYS)
            self.flight.note(
                "daemon.result",
                vm=session.vm_id,
                session=session.session_id,
                replay=True,
            )
            await self._send_ready(
                stream,
                codec.encode_ready(session.round_no, session.applied_in_round,
                                   False, True),
            )
            await stream.send(codec.encode_result(session.result))
            return

        announce_follows = self._plan_announce(session, hello.body)
        await self._send_ready(
            stream,
            codec.encode_ready(
                session.round_no, session.applied_in_round, announce_follows, False
            ),
        )
        if announce_follows:
            with _span("daemon.announce", vm=session.vm_id) as announce_span:
                hosted = self._checkpoint_for(session.vm_id, session.algorithm)
                digests = hosted.announce_digests if hosted is not None else []
                await stream.send(codec.encode_announce(digests))
                announce_span.set(digests=len(digests))
                self._count(names.DAEMON_ANNOUNCE_FULL)
                self._count(names.DAEMON_ANNOUNCED_DIGESTS, len(digests))

        while True:
            frame = await codec.read_frame(recv)
            if frame.type == TYPE_ROUND:
                session.announce_acked = True
                if frame.round_no != session.round_no:
                    session.round_no = frame.round_no
                    session.applied_in_round = 0
                with _span(
                    "daemon.round", round_no=frame.round_no, expected=frame.count
                ) as round_span:
                    received, aborted = await self._receive_pages(
                        stream, recv, session, codec, frame.count
                    )
                    if aborted:
                        round_span.set(received=received, aborted=True)
                        return
                    round_span.set(received=received)
            elif frame.type == TYPE_COMPLETE:
                if self._persist is not None:
                    # Everything received must be durably on disk before
                    # the image is verified and the RESULT acked — the
                    # write-behind queue changes *when* pack I/O
                    # happens, never what has happened by this point.
                    await self._persist.drain()
                result = session.finish(frame)
                if result["ok"]:
                    adopted = self._adopt_checkpoint(
                        session.vm_id,
                        session.slot_digests,
                        algorithm=session.algorithm,
                        page_size=session.page_size,
                        session=session,
                    )
                    # Tell the source which generation its image became,
                    # so the next migration back can name it and skip
                    # the announce.
                    result["checkpoint_generation"] = adopted.generation
                else:
                    # A rejected image is nobody's checkpoint: free it
                    # now, not when the session is pruned.
                    session.release_refs()
                # Only now: an adoption that raised leaves a live session
                # owning its image, and a reconnect sends COMPLETE again.
                session.completed = True
                if self.repository is not None:
                    self.repository.save_session(
                        session.session_id,
                        {
                            "vm_id": session.vm_id,
                            "result": result,
                            "rounds": session.round_no,
                            "applied_in_round": session.applied_in_round,
                        },
                    )
                self._count(names.DAEMON_SESSIONS_COMPLETED)
                self._count(names.DAEMON_PAGES_RECEIVED, session.pages_received)
                self._count(names.DAEMON_APPLY_BATCHES, session.apply_batches)
                self._count(names.DAEMON_REUSED_IN_PLACE, session.reused_in_place)
                self._count(names.DAEMON_REUSED_FROM_STORE, session.reused_from_store)
                # The headline VeCycle numbers, per host and per VM:
                # bytes the recycled checkpoint saved (pages NOT resent
                # because they were reused in place or resolved from the
                # content store) vs. payload bytes actually received.
                # These are the same quantities MigrationMetrics reports
                # on the source side, so cluster rollups reconcile with
                # per-migration reports exactly.
                recycled = (
                    session.reused_in_place + session.reused_from_store
                ) * session.page_size
                self._count(names.DAEMON_RECYCLED_BYTES, recycled)
                self._count(names.DAEMON_TRANSFERRED_BYTES, session.rx_payload_bytes)
                self.telemetry.vm_count(session.vm_id, "recycled_bytes", recycled)
                self.telemetry.vm_count(
                    session.vm_id, "transferred_bytes", session.rx_payload_bytes
                )
                self.telemetry.vm_count(session.vm_id, "sessions_completed", 1)
                # RESULT-phase note goes to the flight ring directly, so
                # a daemon killed right after this point leaves a dump
                # recording the verdict even with tracing disabled.
                self.flight.note(
                    "daemon.result",
                    vm=session.vm_id,
                    session=session.session_id,
                    ok=result["ok"],
                    pages_received=session.pages_received,
                    reused_in_place=session.reused_in_place,
                    reused_from_store=session.reused_from_store,
                    rounds=session.round_no,
                )
                payload = codec.encode_result(result)
                if self.faults.take_result_abort():
                    # Drop the link with the RESULT half-sent: the
                    # session is committed, the source is left hanging.
                    self._count(names.DAEMON_INJECTED_ABORTS)
                    await stream.send(payload[: max(1, len(payload) // 2)])
                    stream.abort()
                    return
                await stream.send(payload)
                return
            else:
                raise SinkProtocolError(
                    "bad-frame", f"unexpected frame {frame.name} between rounds"
                )
