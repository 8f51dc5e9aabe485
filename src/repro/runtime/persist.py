"""Write-behind persistence: received pages reach the pack store off the loop.

A durable daemon's content store spills every new page here
(:meth:`_WriteBehind.defer`); one worker task appends what has queued
to the :class:`~repro.storage.repository.CheckpointRepository` in a
thread, so pack I/O overlaps the socket, and every commit point drains
it first.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.obs import names
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.storage.repository import CheckpointRepository

log = get_logger(__name__)

_WRITEBEHIND_STALL = names.PIPELINE_STALL.labelled("writebehind")
"""Seconds reception waited on the write-behind backlog."""


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
