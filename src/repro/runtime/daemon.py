"""The per-host checkpoint daemon: the receiving end of live migrations.

One :class:`CheckpointDaemon` plays the role a VeCycle-enabled
hypervisor host plays in the paper's prototype (§4.1): it keeps a
checkpoint for every VM that ever left it, serves the §3.2 bulk
checksum announce to incoming migration sources, merges the incoming
message stream per Listing 1 (in-place reuse when the local page
already matches, content-store lookup for relocated pages), verifies
the final image, and stores the result as the next checkpoint — which
is what makes back-to-back ping-pong migrations recycle state.

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
:class:`~repro.storage.repository.CheckpointRepository` as they arrive,
the per-checkpoint manifest commits atomically on RESULT, and startup
recovery rebuilds the hosted checkpoints and checksum state from the
manifests, quarantining (never crashing on) corrupt entries.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Deque, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

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
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.prometheus import MetricsServer, render_sections
from repro.obs.telemetry import TelemetrySource
from repro.obs.trace import span as _span
from repro.storage.repository import CheckpointManifest, CheckpointRepository
from repro.runtime.faults import FaultInjector
from repro.runtime.frames import (
    Frame,
    FrameCodec,
    FrameError,
    PAGE_FRAME_TYPES,
    PageRun,
    PageRuns,
    StreamDesyncError,
    TYPE_COMPLETE,
    TYPE_ERROR,
    TYPE_HEARTBEAT,
    TYPE_HELLO,
    TYPE_PAGE_CHECKSUM,
    TYPE_PAGE_FULL,
    TYPE_PAGE_PLAIN,
    TYPE_PAGE_REF,
    TYPE_ROUND,
    TYPE_TELEMETRY,
)
from repro.runtime.shaping import ShapedStream

log = get_logger(__name__)

_MAX_RETAINED_SESSIONS = 64
"""Soft cap on retained sessions: completed ones are evicted oldest
first; *live* sessions are never evicted (the reconnect/resume
guarantee), so the dict may grow past this under extreme concurrency."""

_MAX_DELTA_HISTORY = 4
"""Checkpoint generations per VM whose distinct digest sets are kept
in memory for delta-manifest computation.  History is deliberately
*not* persisted: after a restart the daemon cannot prove what changed
since an older generation, so it falls back to the full announce."""

_WRITEBEHIND_STALL = names.PIPELINE_STALL.labelled("writebehind")
"""Seconds reception waited on the write-behind backlog."""


class SinkProtocolError(RuntimeError):
    """The incoming stream violated the protocol (non-retryable)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.detail = message


@dataclass
class HostedCheckpoint:
    """A checkpoint as the daemon stores it: per-slot page checksums.

    The page *bytes* live in the host-wide content store; the checkpoint
    itself is just the slot → checksum map plus bookkeeping, mirroring
    the paper's split between the checkpoint file and its in-memory
    checksum index (§3.3).
    """

    vm_id: str
    slot_digests: List[bytes]
    """Never mutated once the checkpoint exists (an adoption builds a
    new object), which is what lets the views below be computed once."""
    algorithm: ChecksumAlgorithm
    """What named the slots: a migration hashing with another algorithm
    finds nothing to recycle here (:meth:`CheckpointDaemon._checkpoint_for`)."""
    timestamp: float = field(default=0.0, compare=False)
    last_used: float = field(default=0.0, compare=False)
    generation: int = field(default=0, compare=False)
    """Monotonic per-VM adoption counter; lets a returning source prove
    its remembered digest set is current (or get a delta against it)."""
    _sketches: Dict[int, List[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def num_pages(self) -> int:
        return len(self.slot_digests)

    @cached_property
    def distinct(self) -> FrozenSet[bytes]:
        """The distinct checksums — the one walk over ``slot_digests``
        every other view (and the delta history) is derived from."""
        return frozenset(self.slot_digests)

    @cached_property
    def announce_digests(self) -> List[bytes]:
        """Sorted distinct checksums — the §3.2 bulk announce body."""
        return sorted(self.distinct)

    def sketch(self, k: int) -> List[str]:
        """Bottom-``k`` similarity sketch of :attr:`distinct` (once per ``k``)."""
        sketch = self._sketches.get(k)
        if sketch is None:
            # Local import: repro.orchestrator imports the runtime at
            # module load; only the sketch math flows the other way.
            from repro.orchestrator.inventory import digest_sketch

            sketch = self._sketches[k] = digest_sketch(self.distinct, k=k)
        return sketch


@dataclass(frozen=True)
class CheckpointInfo:
    """One hosted checkpoint as the cluster inventory sees it.

    Produced by :meth:`CheckpointDaemon.hosted_checkpoints`, which
    merges the live in-memory checkpoint map with the durable
    repository's manifests, so a checkpoint that was recovered from disk
    (or committed there by another handle on the same repository) but
    never faulted back into memory is still visible to the control
    plane's inventory report.

    Attributes:
        vm_id: The checkpointed VM.
        pages: Slots in the checkpoint image.
        unique_pages: Distinct page contents (post-dedup).
        stored_bytes: Bytes the distinct contents occupy (durable
            record payloads when the repository holds them, resident
            page bytes otherwise).
        timestamp: When the checkpoint was taken.
        last_used: Last time the checkpoint served a migration (adopt,
            announce, or session preload); equals ``timestamp`` until
            first use.
        resident: Whether the daemon holds the checkpoint in its live
            map (False for durable-only entries).
    """

    vm_id: str
    pages: int
    unique_pages: int
    stored_bytes: int
    timestamp: float
    last_used: float
    resident: bool


class _SinkSession:
    """Receiver state for one migration, persistent across reconnects."""

    def __init__(
        self,
        session_id: str,
        vm_id: str,
        num_pages: int,
        method: Method,
        algorithm: ChecksumAlgorithm,
        store: ContentAddressedStore,
        preload: Optional[HostedCheckpoint],
    ) -> None:
        self.session_id = session_id
        self.vm_id = vm_id
        self.num_pages = num_pages
        self.method = method
        self.algorithm = algorithm
        self.store = store
        self.slot_digests: List[Optional[bytes]] = (
            list(preload.slot_digests) if preload else [None] * num_pages
        )
        # The session owns one content-store reference per filled slot,
        # starting with the preloaded checkpoint copy; _set_slot keeps
        # the invariant as frames overwrite slots, release_refs drops
        # everything when the session is retired.
        store.retain_many(self.slot_digests)
        self._refs_released = False
        self.page_size = 4096
        self.round_no = 1
        self.applied_in_round = 0
        self.total_applied = 0
        self.announce_acked = False
        self.completed = False
        self.result: Optional[dict] = None
        self.reused_in_place = 0
        self.reused_from_store = 0
        self.pages_received = 0
        self.rx_payload_bytes = 0
        self.apply_batches = 0

    def apply_pages(self, decoded: PageRuns, frame_bytes: Mapping[int, int]) -> None:
        """Merge a decoded batch in order (Listing 1, content-store edition).

        ``decoded`` is what :meth:`FrameCodec.decode_pages` returned and
        ``frame_bytes`` the codec's tag → wire size table.  Every frame
        gets the checks a lone frame would; a violation raises after
        the frames ahead of it were applied and counted, and leaves the
        rest of the batch untouched.  A :class:`PageRun` is applied in
        one piece when that is the same thing (:meth:`_apply_run`) and
        frame by frame, like every other stretch, when it is not.
        """
        slot_digests, store, num_pages = self.slot_digests, self.store, self.num_pages
        set_slot = self._set_slot
        applied: List[int] = []  # the tag of every frame applied
        in_place = from_store = 0
        try:
            for run in decoded.runs:
                if isinstance(run, PageRun):
                    if self._apply_run(run):
                        applied += [run.tag] * len(run.slots)
                        continue
                    run = run.rows()
                for tag, slot, digest, payload, ref in run:
                    if not 0 <= slot < num_pages:
                        raise SinkProtocolError(
                            "bad-slot",
                            f"page number {slot} outside [0, {num_pages})",
                        )
                    if tag == TYPE_PAGE_CHECKSUM:
                        if slot_digests[slot] == digest:
                            in_place += 1
                        elif digest in store:
                            set_slot(slot, digest)
                            from_store += 1
                        else:
                            raise SinkProtocolError(
                                "missing-content",
                                f"page {slot}: checksum announced but absent "
                                "from the content store",
                            )
                    elif tag == TYPE_PAGE_FULL:
                        # §3.2: the attached checksum saves the receiver
                        # from re-hashing the page; the sender is trusted
                        # here exactly as in the prototype.
                        store.put(digest, payload)
                        set_slot(slot, digest)
                    elif tag == TYPE_PAGE_PLAIN:
                        digest = self.algorithm.digest(payload)
                        store.put(digest, payload)
                        set_slot(slot, digest)
                    elif tag == TYPE_PAGE_REF:
                        if not 0 <= ref < num_pages:
                            raise SinkProtocolError(
                                "bad-ref",
                                f"dedup reference to slot {ref} out of range",
                            )
                        target = slot_digests[ref]
                        if target is None:
                            raise SinkProtocolError(
                                "bad-ref",
                                f"page {slot}: dedup reference to slot {ref}, "
                                "which has not been received",
                            )
                        set_slot(slot, target)
                    else:  # pragma: no cover - decode_pages yields page tags only
                        raise SinkProtocolError(
                            "bad-frame", f"unexpected frame tag 0x{tag:02x}"
                        )
                    applied.append(tag)
        finally:
            self.reused_in_place += in_place
            self.reused_from_store += from_store
            self.pages_received += len(applied)
            self.applied_in_round += len(applied)
            self.total_applied += len(applied)
            self.rx_payload_bytes += sum(
                applied.count(tag) * size for tag, size in frame_bytes.items()
            )
            self.apply_batches += 1

    def _apply_run(self, run: PageRun) -> bool:
        """Apply ``run`` in one piece; False (nothing touched) when only
        the frame-by-frame loop gives the frame-by-frame result.

        With every slot distinct and in range no frame reads what another
        wrote, so the run is its frames in any order — except through the
        store's reference counts.  A FULL run puts its content first and
        only then swaps references (every new digest retained, then every
        replaced one released), which ends where the loop ends.  A
        CHECKSUM frame resolves its digest from the store *at its turn*:
        the swap is order-free only while no digest a frame needs is one
        another frame lets go of, and a digest the store lacks is the
        loop's error to raise at the right frame.
        """
        tag, slots, digests, pages = run
        slot_digests, store = self.slot_digests, self.store
        if (
            len(set(slots)) != len(slots)
            or min(slots) < 0
            or max(slots) >= self.num_pages
        ):
            return False
        replaced = itemgetter(*slots)(slot_digests)
        if tag == TYPE_PAGE_FULL:
            store.put_many(digests, pages)
        elif replaced == tuple(digests):
            self.reused_in_place += len(slots)
            return True
        else:
            moved = [
                (slot, new, old)
                for slot, new, old in zip(slots, digests, replaced)
                if new != old
            ]
            in_place = len(slots) - len(moved)
            slots, digests, replaced = zip(*moved)
            wanted = set(digests)
            if not wanted.isdisjoint(replaced) or any(
                digest not in store for digest in wanted
            ):
                return False
            self.reused_in_place += in_place
            self.reused_from_store += len(moved)
        store.retain_many(digests)
        store.release_many(replaced)
        for slot, digest in zip(slots, digests):
            slot_digests[slot] = digest
        return True

    def _set_slot(self, slot: int, digest: bytes) -> None:
        """Assign ``digest`` to ``slot``, moving the store references."""
        old = self.slot_digests[slot]
        if old == digest:
            return
        self.store.retain(digest)
        if old is not None:
            self.store.release(old)
        self.slot_digests[slot] = digest

    def release_refs(self) -> int:
        """Give up the session's per-slot references (idempotent).

        Called when the session is retired from the retention map;
        returns resident bytes freed from the content store.
        """
        if self._refs_released:
            return 0
        self._refs_released = True
        freed = self.store.release_many(self.slot_digests)
        self.slot_digests = []
        return freed

    def hand_over(self) -> None:
        """The image became a checkpoint: its slot list and per-slot
        references are that checkpoint's now.  What stays is the shape
        :meth:`restore` builds — a RESULT to replay, nothing to release."""
        self.slot_digests = []
        self._refs_released = True

    @classmethod
    def restore(
        cls,
        session_id: str,
        store: ContentAddressedStore,
        payload: dict,
    ) -> "_SinkSession":
        """Rebuild a *completed* session from its persisted RESULT.

        Restored sessions exist only to replay their RESULT to a source
        that reconnects after a daemon restart; they hold no slots and
        no content references.
        """
        session = cls(
            session_id=session_id,
            vm_id=str(payload.get("vm_id", "")),
            num_pages=0,
            method=Method.FULL,
            algorithm=DEFAULT_CHECKSUM,
            store=store,
            preload=None,
        )
        session.completed = True
        session.result = payload.get("result")
        session.round_no = int(payload.get("rounds", 1))
        session.applied_in_round = int(payload.get("applied_in_round", 0))
        return session

    def finish(self, frame: Frame) -> dict:
        """Handle COMPLETE: verify the image — the digest over the
        per-slot digests is the end-to-end check — and freeze the result.
        The daemon marks the session completed once it has acted on it."""
        missing = self.slot_digests.count(None)
        ok = missing == 0 and (
            self.algorithm.digest(b"".join(self.slot_digests)) == frame.digest
        )
        self.result = {
            "ok": ok,
            "pages_received": self.pages_received,
            "reused_in_place": self.reused_in_place,
            "reused_from_store": self.reused_from_store,
            "unique_contents": len(set(self.slot_digests)),
            # What the sink counted into daemon.transferred_bytes for
            # this session — echoed to the source so cluster telemetry
            # rollups can be reconciled against per-migration metrics
            # exactly, even under fault injection.
            "rx_payload_bytes": self.rx_payload_bytes,
            "rounds": self.round_no,
            "error": None
            if ok
            else (
                f"{missing} slots never received"
                if missing
                else "final image digest mismatch"
            ),
        }
        return self.result


class _WriteBehind:
    """Bounded write-behind queue feeding the repository's packs.

    :meth:`defer` only enqueues a decoded batch's ``(digest, page)``
    pairs.  A single worker task takes *everything queued* each time it
    runs and, in one thread hop, appends it
    (:meth:`CheckpointRepository.put_pages`) and issues the data barrier
    (:meth:`CheckpointRepository.sync_pending_dirs`, one ``fsync`` of the
    pack) — so pack I/O overlaps the socket, the hop is paid per backlog,
    not per page, and the barrier before the manifest finds nothing left
    to sync.  After a commit the same thread compacts packs that are more
    than half dead: never on the event loop between COMPLETE and RESULT.

    Durability is that of a synchronous write: every commit point drains
    first — COMPLETE awaits :meth:`drain`, synchronous installs call
    :meth:`flush_sync` — and the commit's own barrier covers the rest.

    * A ``put_pages`` batch is all or nothing; the worker keeps the first
      error it sees (fault hooks simulating ``kill -9`` raise
      ``BaseException``) and :meth:`drain` / :meth:`flush_sync` re-raise
      it — where a synchronous write would have, before any commit.
    * On ``CancelledError`` (shutdown) the thread cannot be recalled, so
      the whole batch goes back to the front of the queue in order and
      :meth:`close` → :meth:`flush_sync` puts it again: the flush waits
      on the repository's lock for the abandoned thread's append, then
      finds it already indexed.

    :meth:`throttle` (awaited once per decoded batch) blocks reception
    while the writer is more than ``max_pending_bytes`` behind — disk
    pressure becomes socket backpressure — so the queue overshoots the
    bound by at most one receive arena.  Batches and stall time are
    counted in every registry of ``registries`` (for a daemon, the
    process-wide one and its own ``TelemetrySource``).
    """

    def __init__(self, repository: CheckpointRepository,
                 registries: Sequence[MetricsRegistry],
                 max_pending_bytes: int = 8 << 20) -> None:
        self._repository = repository
        self._registries = registries
        self.max_pending_bytes = max_pending_bytes
        self._queue: Deque[Tuple[bytes, bytes]] = deque()
        self.pending_bytes = 0
        self._inflight: List[Tuple[bytes, bytes]] = []
        self._compact_due = False
        self._error: Optional[BaseException] = None
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._waiters: List[asyncio.Future] = []

    @property
    def idle(self) -> bool:
        return not self._queue and not self._inflight

    def defer(self, batch: Sequence[Tuple[bytes, bytes]] = (), compact: bool = False) -> None:
        """Queue a batch of page writes (the content store's spill hook)
        or, after a commit, a compaction for the worker's thread."""
        self._queue.extend(batch)
        self.pending_bytes += sum(len(page) for _, page in batch)
        self._compact_due |= compact
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            # Synchronous caller (checkpoint install outside the loop):
            # flush_sync() writes the backlog before any commit.
            return
        self._ensure_worker(loop)
        self._wake.set()

    def _ensure_worker(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._task is not None and not self._task.done():
            return
        self._wake = asyncio.Event()
        self._task = loop.create_task(self._run())

    def _take_queue(self) -> List[Tuple[bytes, bytes]]:
        batch = list(self._queue)
        self._queue.clear()
        self.pending_bytes = 0
        return batch

    def _write(self, batch: List[Tuple[bytes, bytes]], compact: bool) -> None:
        if batch:
            self._repository.put_pages(batch)
            self._repository.sync_pending_dirs()
        if compact:
            try:
                self._repository.compact()
            except Exception:  # space not reclaimed is not a failed write
                log.exception("pack compaction failed")

    async def _run(self) -> None:
        while True:
            while not self._queue and not self._compact_due:
                self._wake.clear()
                await self._wake.wait()
            batch = self._inflight = self._take_queue()
            compact, self._compact_due = self._compact_due, False
            if batch:
                for registry in self._registries:
                    names.DAEMON_WRITEBEHIND_BATCHES.on(registry).add()
            try:
                await asyncio.to_thread(self._write, batch, compact)
            except asyncio.CancelledError:
                # Shutdown: the thread cannot be recalled, so hand the
                # batch back in order for flush_sync to put again.
                self._queue.extendleft(reversed(batch))
                self.pending_bytes += sum(len(page) for _, page in batch)
                raise
            except BaseException as exc:  # fault hooks raise BaseException
                if self._error is None:
                    self._error = exc
            finally:
                self._inflight = []
                self._notify()

    def _notify(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _wait_progress(self) -> None:
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        await waiter

    async def throttle(self) -> None:
        """Block while the backlog exceeds ``max_pending_bytes``."""
        if self.pending_bytes <= self.max_pending_bytes or self.idle:
            return
        started = time.perf_counter()
        while self.pending_bytes > self.max_pending_bytes and not self.idle:
            await self._wait_progress()
        stalled = time.perf_counter() - started
        for registry in self._registries:
            names.PIPELINE_STAGE_STALL_SECONDS.on(registry).observe(stalled)
            _WRITEBEHIND_STALL.on(registry).add(stalled)

    async def drain(self) -> None:
        """Wait until the backlog has durably landed; re-raise errors."""
        if self._queue:
            self.defer()  # (re)start the worker for a backlog queued without one
        while not self.idle:
            await self._wait_progress()
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def flush_sync(self) -> None:
        """Append the backlog inline (synchronous install path).

        A batch the worker holds in flight is put again (waiting on the
        repository's lock, then skipping what the thread indexed): all
        that was deferred must be indexed before the caller's commit.
        """
        batch = self._inflight + self._take_queue()
        if batch:
            self._repository.put_pages(batch)
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    async def close(self) -> None:
        """Stop the worker and write anything still queued."""
        if self._task is not None:
            task, self._task = self._task, None
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self.flush_sync()


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
        repository: Pre-built repository to use instead of
            ``state_dir``; the daemon owns it and :meth:`stop` closes it.
        max_concurrent_migrations: Advertised migration capacity for
            the cluster control plane's admission control; the daemon
            itself accepts any number of concurrent sessions.
        metrics_port: When set (0 for an ephemeral port), :meth:`start`
            also serves Prometheus text exposition of this daemon's
            telemetry on ``http://127.0.0.1:<port>/metrics``.
    """

    def __init__(
        self,
        name: str = "host",
        link: Optional[Link] = None,
        time_scale: float = 1.0,
        io_timeout_s: float = 30.0,
        pagestore: Optional[PageStore] = None,
        state_dir: Optional[Path | str] = None,
        repository: Optional[CheckpointRepository] = None,
        max_concurrent_migrations: int = 2,
        metrics_port: Optional[int] = None,
    ) -> None:
        self.name = name
        self.link = link
        self.time_scale = time_scale
        self.io_timeout_s = io_timeout_s
        self.max_concurrent_migrations = max_concurrent_migrations
        self.pagestore = pagestore or PageStore()
        if repository is None and state_dir is not None:
            repository = CheckpointRepository(state_dir)
        self.repository = repository
        # Telemetry: every instrument lands in the process-wide registry
        # (the pre-existing contract tests and exporters rely on) *and*
        # in a per-daemon source, so co-hosted daemons in one process
        # stay separable on the wire and in Prometheus labels.
        self.telemetry = TelemetrySource(name)
        self._registries = (get_registry(), self.telemetry.registry)
        # Write-behind persistence: incoming pages spill to the
        # repository through a bounded queue instead of a synchronous
        # write-through, drained before any commit point.
        self._persist = (
            _WriteBehind(repository, self._registries)
            if repository is not None
            else None
        )
        self.store = ContentAddressedStore(
            repository=repository,
            spill=self._persist.defer if self._persist is not None else None,
        )
        self.checkpoints: Dict[str, HostedCheckpoint] = {}
        # Per-VM checkpoint generation counters and the recent distinct
        # digest set per generation (for DIGEST_DELTA manifests).
        self._generations: Dict[str, int] = {}
        self._delta_history: Dict[str, "OrderedDict[int, FrozenSet[bytes]]"] = {}
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
        self.flight = FlightRecorder(f"daemon-{name}")
        self.metrics_port = metrics_port
        self.metrics_server: Optional[MetricsServer] = None
        if self.repository is not None:
            self._recover()

    def _count(self, counter: names.CounterName, amount: float = 1.0) -> None:
        """Increment a counter in both the global and per-daemon registries."""
        for registry in self._registries:
            counter.on(registry).add(amount)

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
            # Generations resume where the manifest left off, but the
            # delta history does not survive a restart: the next visitor
            # with an older base generation gets the full announce.
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
        if self.metrics_port is not None and self.metrics_server is None:
            self.metrics_server = MetricsServer(
                render_text=lambda: render_sections(self.telemetry.sections()),
                render_json=lambda: {
                    "host": self.name,
                    "seq": self.telemetry.seq,
                    "sections": [
                        [labels, instruments]
                        for labels, instruments in self.telemetry.sections()
                    ],
                },
                port=self.metrics_port,
            ).start()
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
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
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
        reference per slot — from ``session`` (a verified COMPLETE hands
        over the ones it holds for exactly this list) or freshly — the
        replaced checkpoint's are released, the VM's generation counter
        is bumped and the distinct digest set enters the bounded delta
        history that powers DIGEST_DELTA manifests.
        """
        if timestamp is None:
            timestamp = time.time()
        if self._persist is not None:
            self.store.flush_spill()
            self._persist.flush_sync()
        hosted = HostedCheckpoint(
            vm_id=vm_id,
            slot_digests=slot_digests,
            algorithm=algorithm,
            timestamp=timestamp,
            last_used=timestamp,
            generation=self._generations.get(vm_id, 0) + 1,
        )
        if self.repository is not None:
            # A verify() scrub may have quarantined records this image
            # still references (the write-behind queue only carries *new*
            # content), and commit_checkpoint refuses a manifest with
            # missing records: re-spill what is still resident.  Content
            # resident nowhere stays missing and the commit raises —
            # correct: the daemon genuinely lost it.
            for digest in self.repository.missing(hosted.distinct):
                page = self.store.get(digest)
                if page is not None:
                    self.repository.put_page(digest, page)
                    self._count(names.DAEMON_RESPILLED_SEGMENTS)
            self.repository.commit_checkpoint(
                CheckpointManifest(
                    vm_id=vm_id,
                    slot_digests=slot_digests,
                    algorithm=algorithm.name,
                    page_size=page_size,
                    timestamp=timestamp,
                    generation=hosted.generation,
                )
            )
            # The replaced checkpoint's records are dead: the writer thread compacts.
            self._persist.defer(compact=True)
        if session is not None:
            session.hand_over()
        else:
            self.store.retain_many(slot_digests)
        previous = self.checkpoints.get(vm_id)
        self.checkpoints[vm_id] = hosted
        self._generations[vm_id] = hosted.generation
        history = self._delta_history.setdefault(vm_id, OrderedDict())
        history[hosted.generation] = hosted.distinct
        while len(history) > _MAX_DELTA_HISTORY:
            history.popitem(last=False)
        if previous is not None:
            self.store.release_many(previous.slot_digests)
        return hosted

    def drop_checkpoint(self, vm_id: str) -> int:
        """Stop hosting ``vm_id``'s checkpoint; free its last-owner pages.

        Returns the number of bytes actually released (durable payload
        bytes when a repository is attached, plus resident bytes).
        The retention policies in :mod:`repro.cluster.gc` call this so
        dropped checkpoints stop leaking content-store entries.
        """
        hosted = self.checkpoints.pop(vm_id, None)
        if hosted is None:
            return 0
        # The delta history must not outlive the checkpoint: a later
        # DIGEST_DELTA computed against a dropped generation would
        # describe state this daemon no longer hosts.  The *generation
        # counter* deliberately survives — restarting at 1 after a
        # re-adoption would let a stale source claim an old generation
        # number against a different digest set and earn a bogus
        # verified skip.
        self._delta_history.pop(vm_id, None)
        freed = self.store.release_many(hosted.slot_digests)
        if self.repository is not None:
            # Resident and durable bytes are distinct pools; reclaiming
            # the checkpoint frees both, so report both.
            freed += self.repository.delete_checkpoint(vm_id)
        return freed

    def audit_store(self) -> List[str]:
        """Cross-check content-store refcounts against their owners.

        Every reference in the store must be explainable by exactly one
        owner slot: a hosted checkpoint's slot or a non-retired
        session's slot.  A digest with more references than owners is a
        leak (stored bytes that can never be reclaimed); fewer is a
        double release (bytes that may vanish under a live owner).
        Returns human-readable violation strings, empty when clean —
        the content-store invariant of the :mod:`repro.chaos` plane.
        """
        expected: Dict[bytes, int] = {}
        for hosted in self.checkpoints.values():
            for digest in hosted.slot_digests:
                expected[digest] = expected.get(digest, 0) + 1
        for session in self._sessions.values():
            for digest in session.slot_digests:
                if digest is not None:
                    expected[digest] = expected.get(digest, 0) + 1
        actual = {d: n for d, n in self.store.refcounts().items() if n > 0}
        violations = []
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

    def hosted_checkpoints(self) -> List[CheckpointInfo]:
        """Per-VM inventory: the live map merged with the repository.

        The union matters: a checkpoint committed to the shared
        repository by another daemon handle (or left there by a prior
        incarnation) that is not faulted into this daemon's live map
        would otherwise be invisible to the control plane even though a
        migration could use it after a restart.  Sorted by vm_id.
        """
        return self._inventory()[0]

    def _inventory(self) -> Tuple[List[CheckpointInfo], Dict[str, dict]]:
        """:meth:`hosted_checkpoints` plus the repository stats behind it,
        so one manifest parse serves the listing and the report's sketch."""
        page_size = self.pagestore.page_size
        durable: Dict[str, dict] = (
            self.repository.checkpoint_stats()
            if self.repository is not None
            else {}
        )
        infos: List[CheckpointInfo] = []
        for vm_id, hosted in self.checkpoints.items():
            unique = len(hosted.distinct)
            stats = durable.get(vm_id)
            stored = (
                stats["stored_bytes"] if stats is not None else unique * page_size
            )
            infos.append(
                CheckpointInfo(
                    vm_id=vm_id,
                    pages=hosted.num_pages,
                    unique_pages=unique,
                    stored_bytes=stored,
                    timestamp=hosted.timestamp,
                    last_used=hosted.last_used or hosted.timestamp,
                    resident=True,
                )
            )
        for vm_id, stats in durable.items():
            if vm_id in self.checkpoints:
                continue
            infos.append(
                CheckpointInfo(
                    vm_id=vm_id,
                    pages=stats["pages"],
                    unique_pages=stats["unique_pages"],
                    stored_bytes=stats["stored_bytes"],
                    timestamp=stats["timestamp"],
                    last_used=stats["timestamp"],
                    resident=False,
                )
            )
        return sorted(infos, key=lambda info: info.vm_id), durable

    def inventory_report(self, sketch_k: Optional[int] = None) -> dict:
        """JSON body answering a HEARTBEAT: capacity + checkpoint digest
        summaries (per-VM page counts and a bottom-k similarity sketch).
        Resident checkpoints answer from their cached views, so between
        adoptions a heartbeat walks no image's digests.
        """
        # Local import: repro.orchestrator imports the runtime at module
        # load; only the sketch math flows the other way.
        from repro.orchestrator.inventory import DEFAULT_SKETCH_K, digest_sketch

        k = sketch_k or DEFAULT_SKETCH_K
        infos, durable = self._inventory()
        checkpoints = []
        for info in infos:
            if info.resident:
                sketch = self.checkpoints[info.vm_id].sketch(k)
            else:
                sketch = digest_sketch(durable[info.vm_id]["distinct"], k=k)
            checkpoints.append(
                {
                    "vm_id": info.vm_id,
                    "pages": info.pages,
                    "unique_pages": info.unique_pages,
                    "stored_bytes": info.stored_bytes,
                    "timestamp": info.timestamp,
                    "last_used": info.last_used,
                    "resident": info.resident,
                    "sketch": list(sketch),
                }
            )
        return {
            "host": self.name,
            "port": self.port,
            "active_sessions": sum(
                1 for s in self._sessions.values() if not s.completed
            ),
            "max_concurrent_migrations": self.max_concurrent_migrations,
            "sketch_k": k,
            "checkpoints": checkpoints,
        }

    # --- fault injection ------------------------------------------------

    def inject_disconnect(
        self,
        after_messages: int = 0,
        times: int = 1,
        mid_result: bool = False,
    ) -> None:
        """Abort connections at a chosen protocol point (test hook).

        With ``mid_result=False`` the abort fires after
        ``after_messages`` total applied data frames.  With
        ``mid_result=True`` it instead fires while the RESULT frame is
        being sent: the session has already been verified, adopted, and
        persisted, but the source never sees the acknowledgement — the
        nastiest spot for a disconnect, exercising the idempotent
        RESULT-replay path on reconnect.  Either way the abort happens
        ``times`` times, then the daemon behaves normally.  Shorthand
        for assigning :attr:`faults` an injector with only these set.
        """
        self.faults = FaultInjector(
            after_messages=after_messages, times=times, mid_result=mid_result
        )

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
        for key in ("session", "vm_id", "num_pages", "mode", "page_size",
                    "digest_size", "algorithm"):
            if key not in hello:
                raise SinkProtocolError("bad-hello", f"missing field {key!r}")
        try:
            method = Method(hello["mode"])
        except ValueError:
            raise SinkProtocolError(
                "bad-mode", f"unknown transfer method {hello['mode']!r}"
            ) from None
        algorithm = get_algorithm(hello["algorithm"])
        if algorithm.digest_size != hello["digest_size"]:
            raise SinkProtocolError(
                "bad-hello",
                f"digest size {hello['digest_size']} does not match "
                f"{algorithm.name}",
            )
        wire = WireFormat(
            page_size=int(hello["page_size"]),
            checksum_bytes=int(hello["digest_size"]),
        )
        codec = FrameCodec(wire)
        session = self._sessions.get(hello["session"])
        if session is None:
            num_pages = int(hello["num_pages"])
            preload = self._checkpoint_for(hello["vm_id"], algorithm)
            if preload is not None and preload.num_pages != num_pages:
                preload = None
            if preload is not None:
                preload.last_used = time.time()
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
            session.page_size = int(hello["page_size"])
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
                for registry in self._registries:
                    names.DAEMON_SESSIONS_LIVE_OVERFLOW.on(registry).set(overflow)
                return
            victim = self._sessions.pop(victim_id)
            victim.release_refs()
            if self.repository is not None:
                self.repository.drop_session(victim_id)

    def _plan_announce(
        self, session: _SinkSession, hello_body: dict
    ) -> Tuple[bool, Optional[Tuple[int, int, List[bytes], List[bytes]]]]:
        """Decide the checksum-manifest shape for this HELLO.

        Returns ``(announce_follows, delta)``; ``delta`` is
        ``(generation, base_generation, added, removed)`` when a
        DIGEST_DELTA frame should be sent instead of the full ANNOUNCE.

        The decision tree stays replay-compatible with older sources:

        * no ``announce_known`` claim → full ANNOUNCE (as always);
        * ``announce_known`` without a ``base_generation`` → trusted
          skip (the legacy §3.3 ping-pong shortcut);
        * ``base_generation`` equal to the hosted checkpoint's current
          generation → verified skip;
        * ``base_generation`` found in the in-memory delta history →
          DIGEST_DELTA with exactly what changed since then;
        * anything else (stale generation, post-restart history loss,
          no hosted checkpoint of the session's algorithm) → full
          ANNOUNCE fallback.
        """
        if not session.method.uses_hashes or session.announce_acked:
            return False, None
        if not hello_body.get("announce_known", False):
            return True, None
        base_generation = hello_body.get("base_generation")
        if base_generation is None:
            # Legacy source claiming full knowledge: trusted skip.
            return False, None
        base_generation = int(base_generation)
        hosted = self._checkpoint_for(session.vm_id, session.algorithm)
        if hosted is not None and base_generation == hosted.generation:
            self._count(names.DAEMON_ANNOUNCE_SKIPPED)
            return False, None
        base = self._delta_history.get(session.vm_id, {}).get(base_generation)
        if (
            hosted is not None
            and base is not None
            and hosted.generation > base_generation
        ):
            current = hosted.distinct
            return True, (
                hosted.generation,
                base_generation,
                sorted(current - base),
                sorted(base - current),
            )
        return True, None

    async def _answer_heartbeat(self, stream: ShapedStream,
                                codec: FrameCodec, hello: Frame) -> None:
        # Control-plane liveness probe: answer with the inventory
        # report — no migration session is created.
        self._count(names.DAEMON_HEARTBEATS)
        body = self.inventory_report(
            sketch_k=int(hello.body.get("sketch_k", 0)) or None
        )
        body["seq"] = hello.body.get("seq")
        await stream.send(codec.encode_inventory(body))

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
        body["probe_seq"] = hello.body.get("seq")
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

        announce_follows, delta = self._plan_announce(session, hello.body)
        await self._send_ready(
            stream,
            codec.encode_ready(
                session.round_no, session.applied_in_round, announce_follows, False
            ),
        )
        if announce_follows:
            with _span("daemon.announce", vm=session.vm_id) as announce_span:
                hosted = self._checkpoint_for(session.vm_id, session.algorithm)
                if hosted is not None:
                    hosted.last_used = time.time()
                if delta is not None:
                    generation, base_generation, added, removed = delta
                    payload = codec.encode_digest_delta(
                        generation, base_generation, added, removed
                    )
                    full_bytes = codec.wire.announce_frame_bytes(len(hosted.distinct))
                    await stream.send(payload)
                    announce_span.set(
                        delta=True,
                        added=len(added),
                        removed=len(removed),
                        generation=generation,
                    )
                    self._count(names.DAEMON_ANNOUNCE_DELTA)
                    self._count(
                        names.DAEMON_ANNOUNCED_DIGESTS, len(added) + len(removed)
                    )
                    for registry in self._registries:
                        names.MANIFEST_DELTA_RATIO.on(registry).observe(
                            len(payload) / max(1, full_bytes)
                        )
                else:
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
                    # so the next migration back can name it and get a
                    # delta (or skip) instead of the full announce.
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
