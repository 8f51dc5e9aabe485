"""The sending side of a live migration.

:class:`MigrationSource` drives the VeCycle protocol over a real
socket: HELLO/READY handshake, the §3.2 bulk checksum announce (or the
§3.3 ping-pong shortcut that skips it), a planned first round that
sends only content the destination is missing, optional pre-copy style
dirty rounds, and a verified COMPLETE/RESULT finish.

Failure handling is the part the analytic model has no opinion about:
every read is bounded by a timeout, and :meth:`MigrationSource.migrate`
is the one place a migration reconnects — one loop, one
:class:`RetryPolicy` budget, one :class:`MigrationMetrics` for the whole
call.  After a transport failure the reconnect *resumes*: the
destination's READY frame reports exactly how many messages of which
round it applied, and because every round's message sequence is frozen
at plan time in deterministic slot order, "skip the first N messages of
round R" reconstructs the stream position without renegotiation.  After
a stream desync those counts cannot be trusted, so the same loop
reconnects under a fresh session id and re-sends the frozen rounds.
Genuine protocol errors (an ERROR frame, a codec violation, a failed
image verification) are never retried; they surface as a structured
:class:`MigrationError`.
"""

from __future__ import annotations

import asyncio
import time
import uuid
import zlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.strategies import MigrationStrategy
from repro.mem.pagestore import PageStore
from repro.net.link import Link
from repro.obs import names
from repro.obs.trace import span as _span
from repro.runtime.frames import (
    FRAME_NAMES,
    FRAME_TYPES,
    FrameCodec,
    FrameError,
    PeerError,
    StreamDesyncError,
    TYPE_ANNOUNCE,
    TYPE_READY,
    TYPE_RESULT,
    expect_frame,
)
from repro.runtime.metrics import MigrationMetrics, RoundMetrics
from repro.runtime.planner import (
    KIND_CHECKSUM,
    KIND_FULL,
    KIND_NAMES,
    KIND_PLAIN,
    KIND_REF,
    RoundSends,
    dirty_round_sends,
    plan_first_round,
)
from repro.runtime.shaping import ShapedStream, open_shaped_connection

_TRANSPORT_ERRORS = (
    ConnectionError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    TimeoutError,
    OSError,
)

BATCH_BYTES = 64 * 1024
"""Page frames are coalesced into socket writes of about this size: each
batch :meth:`FrameCodec.encode_pages` cuts is one send (counted in
``runtime.batch_flushes``)."""

DIGEST_SLICE_PAGES = 1024
"""Distinct pages checksummed between two yields to the event loop, and
page bytes fetched from the store at a time while encoding a round."""

_TAG_OF_KIND = np.zeros(max(KIND_NAMES) + 1, dtype=np.uint8)
"""Planner kind → frame tag; the two vocabularies share their names."""
for _kind, _name in KIND_NAMES.items():
    _TAG_OF_KIND[_kind] = FRAME_TYPES[_name]

DirtyFeed = Callable[[int], Optional[Sequence[int]]]
"""Called once per completed round with the next round number; returns
the slots dirtied since the previous round (after updating the source
state's ``hashes`` in place), or None/empty when the VM can stop."""


class MigrationError(RuntimeError):
    """A migration failed in a way retrying cannot fix (or retries ran out).

    Attributes:
        code: Stable machine-readable failure class ("transport",
            "protocol", "verification", "accounting").
        metrics: The account of the whole call up to the failure —
            every connection it opened — outcome already marked "failed".
    """

    def __init__(self, code: str, message: str,
                 metrics: Optional[MigrationMetrics] = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.detail = message
        self.metrics = metrics


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded reconnect policy with capped exponential backoff.

    ``jitter`` spreads concurrent retriers apart without sacrificing
    reproducibility: the jitter fraction is a pure function of
    ``(key, retry_index)`` — no wall clock, no global RNG — so the same
    VM retrying the same attempt always sleeps the same amount, while
    different VMs hitting the same failure are decorrelated.
    """

    max_attempts: int = 4
    """Connections one :meth:`MigrationSource.migrate` may open."""
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff(self, retry_index: int, key: str = "") -> float:
        """Sleep before retry number ``retry_index`` (0-based).

        The delay is ``base * 2**retry_index`` capped at
        ``max_backoff_s``, then scaled by a deterministic factor in
        ``[1 - jitter, 1 + jitter]`` derived from ``key``.
        """
        delay = min(self.base_backoff_s * 2.0**retry_index, self.max_backoff_s)
        if self.jitter:
            fraction = zlib.crc32(f"{key}#{retry_index}".encode()) / 0xFFFFFFFF
            delay *= 1.0 + self.jitter * (2.0 * fraction - 1.0)
        return delay


@dataclass(frozen=True)
class RuntimeConfig:
    """Timeouts, retry policy and pacing for source-side operations."""

    io_timeout_s: float = 10.0
    connect_timeout_s: float = 5.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    time_scale: float = 0.0
    on_stream: Optional[Callable[[ShapedStream], None]] = None
    """Called with every freshly opened source-side connection, before
    any frame is sent — the fault plane's hook point (``repro.chaos``
    installs per-connection send faults here).  None in production."""


@dataclass
class SourceState:
    """What the source knows about the VM it is about to move.

    Attributes:
        vm_id: Stable VM identity (keys the destination's checkpoints).
        hashes: Per-slot content ids at migration start; dirty feeds may
            update this array in place between rounds.
        pagestore: Expands content ids to page bytes and checksums.
        dirty_slots: Slots written since the destination's checkpoint —
            required by dirty-tracking methods, ignored otherwise.
        known_remote: ``(generation, digests)`` of the destination's
            checkpoint if this host still remembers it from a previous
            migration — the §3.3 ping-pong shortcut.  ``generation`` is
            the one the RESULT of the migration that created it
            reported; HELLO names it as ``base_generation``, and the
            destination skips the announce only when that is still its
            checkpoint's generation, and sends the full announce when the
            checkpoint moved on.
    """

    vm_id: str
    hashes: np.ndarray
    pagestore: PageStore
    dirty_slots: Optional[np.ndarray] = None
    known_remote: Optional[Tuple[int, FrozenSet[bytes]]] = None

    def __post_init__(self) -> None:
        self.hashes = np.asarray(self.hashes, dtype=np.uint64)


class MigrationSource:
    """Drives one VM migration to a destination daemon.

    Args:
        state: The VM being moved.
        strategy: Transfer method + checksum algorithm + wire format
            (the same registry entries the analytic path uses).
        link: Traffic shaping for outgoing data; None for unshaped.
        config: Timeouts, retry policy, pacing scale, send chunking.
        digests: The per-slot checksums of ``state.hashes``, when the
            caller already has them (the orchestrator's placement pass);
            the migration then computes none for its image.
    """

    def __init__(
        self,
        state: SourceState,
        strategy: MigrationStrategy,
        link: Optional[Link] = None,
        config: Optional[RuntimeConfig] = None,
        digests: Optional[Sequence[bytes]] = None,
    ) -> None:
        self.state = state
        self.strategy = strategy
        self.link = link
        self.config = config or RuntimeConfig()
        self.codec = FrameCodec(strategy.wire)
        self.session_id = f"{state.vm_id}-{uuid.uuid4().hex[:12]}"
        # The migration's one digest pass: per-slot checksums of the
        # image, read by the planner, the encoder and the final-image
        # check alike.
        if digests is not None and len(digests) != state.hashes.shape[0]:
            raise ValueError(
                f"{len(digests)} digests for {state.hashes.shape[0]} slots"
            )
        self._slot_digests: Optional[Sequence[bytes]] = digests
        # Content id → checksum of what dirty rounds bring in.
        self._digests: Dict[int, bytes] = {}
        self._final_slots: Optional[Sequence[bytes]] = None
        self._rounds: List[RoundSends] = []
        self._plan = None
        self._feed_done = False
        self._counted: Dict[int, bytearray] = {}
        self.result_generation: Optional[int] = None

    # --- planning -------------------------------------------------------

    def _digests_of(self, content_ids: np.ndarray) -> List[bytes]:
        """Per-row checksums of a dirty round's contents; only ids this
        migration has not met yet go to the page store."""
        table, ids = self._digests, content_ids.tolist()
        unseen = [cid for cid in set(ids) if cid not in table]
        if unseen:
            digests = self.state.pagestore.digests_for(
                np.array(unseen, dtype=np.uint64), self.strategy.checksum
            )
            table.update(zip(unseen, digests))
        return [table[cid] for cid in ids]

    async def _digest_sliced(self) -> int:
        """Checksum the image without starving the loop; returns the
        number of distinct contents checksummed.

        Runs between READY and the announce read: the kernel (and the
        stream's receive arena) collect the announce meanwhile, so the
        hashing hides under its transfer.  Each distinct content is
        checksummed once, a slice at a time, and yielding between slices
        keeps every other task on the loop — an in-process daemon's paced
        sends included — moving.  Fills the per-slot digest list.
        """
        distinct, inverse = np.unique(self.state.hashes, return_inverse=True)
        digests: List[bytes] = []
        for start in range(0, distinct.shape[0], DIGEST_SLICE_PAGES):
            digests += self.state.pagestore.digests_for(
                distinct[start : start + DIGEST_SLICE_PAGES], self.strategy.checksum
            )
            await asyncio.sleep(0)
        self._slot_digests = list(map(digests.__getitem__, inverse.tolist()))
        return len(digests)

    def _build_first_round(self, announced: FrozenSet[bytes]) -> None:
        # Non-hash methods ignore the announced set and the digests.
        self._plan = plan_first_round(
            self.strategy.method,
            self.state.hashes,
            announced=announced,
            dirty_slots=self.state.dirty_slots,
            slot_digests=self._slot_digests,
        )
        self._rounds = [self._plan.round_sends()]

    def _ensure_round(self, round_no: int, dirty_feed: Optional[DirtyFeed]) -> bool:
        """Extend the frozen round list up to ``round_no`` if the VM keeps
        dirtying pages; returns False when there is no such round."""
        while len(self._rounds) < round_no:
            if dirty_feed is None or self._feed_done:
                return False
            slots = dirty_feed(len(self._rounds) + 1)
            if slots is None or len(slots) == 0:
                self._feed_done = True
                return False
            self._rounds.append(
                dirty_round_sends(
                    self.state.hashes, np.asarray(slots, dtype=np.int64)
                )
            )
            self._final_slots = None
        return True

    def _final_slot_digests(self) -> Sequence[bytes]:
        """Per-slot digests of the image after all planned rounds
        (COMPLETE and :meth:`final_digests` read one list; a new dirty
        round drops it)."""
        if self._final_slots is None:
            final = self._slot_digests
            if len(self._rounds) > 1:
                final = list(final)
                for sends in self._rounds[1:]:
                    digests = self._digests_of(sends.content_ids)
                    for slot, digest in zip(sends.slots.tolist(), digests):
                        final[slot] = digest
            self._final_slots = final
        return self._final_slots

    def final_digests(self) -> Optional[FrozenSet[bytes]]:
        """The distinct per-slot checksums of the migrated image.

        What this host should remember about the destination's new
        checkpoint — paired with :attr:`result_generation` — to earn a
        verified announce skip on the way back.  None before a first
        round was ever planned.
        """
        if self._plan is None:
            return None
        return frozenset(self._final_slot_digests())

    def _reset_session(self) -> None:
        """Abandon the wire session; the next connection starts a fresh one.

        After a stream desync the destination's applied counts are no
        longer trustworthy — resuming the same session could skip
        messages the daemon never actually applied.  A new session id
        makes the daemon start a clean session (applied = 0).  The
        planned rounds and ``_counted`` are kept: the plan is a pure
        function of the VM state, and everything re-sent under the new
        session is a retransmission in this migration's account.
        """
        self.session_id = f"{self.state.vm_id}-{uuid.uuid4().hex[:12]}"
        self.result_generation = None

    # --- the protocol ---------------------------------------------------

    async def migrate(
        self,
        host: str,
        port: int,
        dirty_feed: Optional[DirtyFeed] = None,
    ) -> MigrationMetrics:
        """Run the migration; returns metrics or raises :class:`MigrationError`.

        The call either completes (metrics outcome "completed") or fails
        with a structured error after bounded retries — it cannot hang:
        every socket read is capped by ``config.io_timeout_s``.

        Every connection the migration opens is opened here, against one
        ``config.retry`` budget, and the returned (or attached) metrics
        cover all of them.  A transport failure resumes the session; a
        stream desync reconnects under a fresh session id; anything else
        fails fast.  The account is exported to the obs registry once,
        whichever way the call ends.
        """
        metrics = MigrationMetrics(
            vm_id=self.state.vm_id,
            mode=self.strategy.name,
            link=self.link.name if self.link else "unshaped",
        )
        # A frame is a retransmission against what *these* metrics
        # counted, through every reconnect and fresh session of the call.
        self._counted = {}
        policy = self.config.retry
        with _span(
            "runtime.migrate",
            vm=self.state.vm_id,
            mode=self.strategy.name,
            link=metrics.link,
            session=self.session_id,
        ) as migrate_span:
            started = time.monotonic()
            try:
                while True:
                    try:
                        await self._attempt(host, port, metrics, dirty_feed)
                        break
                    except (FrameError, *_TRANSPORT_ERRORS) as exc:
                        # A desync (unknown tag, an over-claiming READY,
                        # or the peer detecting one on its side) is a
                        # torn-connection symptom, not a codec bug.
                        # Genuine codec violations (bad JSON, bad slot)
                        # fail fast.
                        desync = isinstance(exc, StreamDesyncError) or (
                            isinstance(exc, PeerError) and exc.code == "desync"
                        )
                        if isinstance(exc, FrameError) and not desync:
                            raise MigrationError("protocol", str(exc)) from exc
                        if metrics.retries + 1 >= policy.max_attempts:
                            raise MigrationError(
                                "protocol" if desync else "transport",
                                f"gave up after {metrics.retries + 1} attempts: "
                                f"{type(exc).__name__}: {exc}",
                            ) from exc
                        if desync:
                            self._reset_session()
                        with _span(
                            "retry",
                            attempt=metrics.retries + 1,
                            cause=type(exc).__name__,
                        ):
                            await asyncio.sleep(
                                policy.backoff(
                                    metrics.retries, key=self.state.vm_id
                                )
                            )
                        metrics.retries += 1
                if self._plan is not None:
                    metrics.pages_full = self._plan.full_pages
                    metrics.pages_ref = self._plan.ref_pages
                    metrics.pages_checksum_only = self._plan.checksum_only_pages
                    metrics.pages_skipped = self._plan.skipped_pages
                    metrics.checksummed_pages = self._plan.checksummed_pages
                try:
                    metrics.validate()
                except ValueError as exc:
                    raise MigrationError("accounting", str(exc)) from exc
            except MigrationError as exc:
                metrics.error = str(exc)
                exc.metrics = metrics
                self._close_account(metrics, "failed", started)
                raise
            self._close_account(metrics, "completed", started)
            migrate_span.set(
                outcome=metrics.outcome,
                payload_bytes=metrics.payload_bytes,
                retries=metrics.retries,
            ).add_modelled(metrics.modelled_time_s)
            return metrics

    @staticmethod
    def _close_account(
        metrics: MigrationMetrics, outcome: str, started: float
    ) -> None:
        """Stamp the outcome and fold the call's counters into the shared
        obs registry — once per :meth:`migrate`, however many connections
        it took.

        :class:`MigrationMetrics` stays the cross-validation harness's
        source of truth; the registry is the aggregated view the
        exporters ship alongside the span timeline.
        """
        metrics.outcome = outcome
        metrics.wall_time_s = time.monotonic() - started
        for kind, num_bytes in metrics.bytes_by_type.items():
            names.RUNTIME_BYTES.labelled(kind).add(num_bytes)
        for kind, count in metrics.messages_by_type.items():
            names.RUNTIME_MESSAGES.labelled(kind).add(count)
        names.RUNTIME_ANNOUNCE_BYTES.add(metrics.announce_bytes)
        names.RUNTIME_CONTROL_BYTES.add(metrics.control_bytes)
        names.RUNTIME_RETRIES.add(metrics.retries)
        names.RUNTIME_RETRANSMITTED_BYTES.add(metrics.retransmitted_bytes)
        names.RUNTIME_MIGRATIONS.labelled(metrics.outcome).add(1)
        durations = names.RUNTIME_ROUND_SECONDS.on()
        sizes = names.RUNTIME_ROUND_BYTES.on()
        for round_stats in metrics.rounds:
            durations.observe(round_stats.duration_s)
            sizes.observe(round_stats.bytes_sent)

    async def _attempt(
        self,
        host: str,
        port: int,
        metrics: MigrationMetrics,
        dirty_feed: Optional[DirtyFeed],
    ) -> None:
        cfg = self.config
        with _span("connect", host=host, port=port):
            stream = await open_shaped_connection(
                host, port, link=self.link, time_scale=cfg.time_scale,
                connect_timeout_s=cfg.connect_timeout_s,
            )
        if cfg.on_stream is not None:
            cfg.on_stream(stream)
        try:
            recv = stream.recv_with_timeout(cfg.io_timeout_s)
            with _span("announce") as announce_span:
                hello = {
                    "session": self.session_id,
                    "vm_id": self.state.vm_id,
                    "num_pages": int(self.state.hashes.shape[0]),
                    "mode": self.strategy.method.value,
                    "page_size": self.codec.page_size,
                    "digest_size": self.codec.digest_size,
                    "algorithm": self.strategy.checksum.name,
                }
                known: Optional[FrozenSet[bytes]] = None
                if self.state.known_remote is not None:
                    # Name the exact checkpoint generation we remember:
                    # the destination verifies the claim and answers
                    # with a skip or the full announce.
                    generation, known = self.state.known_remote
                    hello["base_generation"] = int(generation)
                frame = self.codec.encode_hello(hello)
                # Counted before the send, like every frame this side
                # writes: a send that dies mid-drain still hit the wire.
                metrics.control_bytes += len(frame)
                await stream.send(frame)

                ready = await expect_frame(self.codec, recv, TYPE_READY)
                metrics.control_bytes += ready.wire_bytes
                if ready.completed:
                    # A previous attempt's COMPLETE landed; collect the
                    # result.
                    await self._finish_result(
                        await expect_frame(self.codec, recv, TYPE_RESULT), metrics
                    )
                    return

                # READY came first, so an ERROR, a replayed RESULT or a
                # resume (the digests are kept) costs no digesting.  The
                # planner needs the *whole* announced set, so the only
                # thing worth overlapping with the announce is hashing.
                if self._slot_digests is None:
                    with _span("digest") as digest_span:
                        digest_span.set(distinct=await self._digest_sliced())

                announced: FrozenSet[bytes] = known or frozenset()
                if ready.announce_follows:
                    # The full announce replaces whatever this host
                    # remembered: the destination sends it exactly when
                    # our remembered generation is not its current one.
                    announce = await expect_frame(self.codec, recv, TYPE_ANNOUNCE)
                    metrics.announce_bytes += announce.wire_bytes
                    announced = frozenset(announce.digests)
                if self._plan is None:
                    with _span("plan"):
                        self._build_first_round(announced)
                announce_span.set(
                    known=known is not None,
                    announce_bytes=metrics.announce_bytes,
                )

            await self._stream_rounds(
                stream, metrics, dirty_feed,
                resume_round=max(int(ready.round_no), 1),
                resume_applied=int(ready.applied),
            )

            with _span("complete"):
                complete = self.codec.encode_complete(
                    len(self._rounds),
                    self.strategy.checksum.digest(
                        b"".join(self._final_slot_digests())
                    ),
                )
                metrics.control_bytes += len(complete)
                await stream.send(complete)
                await self._finish_result(
                    await expect_frame(self.codec, recv, TYPE_RESULT), metrics
                )
        finally:
            with _span("close"):
                metrics.modelled_time_s += stream.modelled_tx_s
                await stream.close()

    async def _stream_rounds(
        self,
        stream: ShapedStream,
        metrics: MigrationMetrics,
        dirty_feed: Optional[DirtyFeed],
        resume_round: int,
        resume_applied: int,
    ) -> None:
        round_no = resume_round
        while True:
            with _span("round", round_no=round_no) as round_span:
                if not self._ensure_round(round_no, dirty_feed):
                    round_span.set(planned=False)
                    break
                sends = self._rounds[round_no - 1]
                skip = resume_applied if round_no == resume_round else 0
                if skip > len(sends):
                    # A sane destination can never have applied more
                    # frames than the round holds; an over-claiming
                    # READY means the reply stream lost alignment (a
                    # truncated frame upstream), not that the peer is
                    # malicious — retry with a fresh session.
                    raise StreamDesyncError(
                        f"destination claims {skip} applied messages of "
                        f"round {round_no}, which only has {len(sends)}"
                    )
                header = self.codec.encode_round(round_no, len(sends) - skip)
                metrics.control_bytes += len(header)
                round_started = time.monotonic()
                round_stats = RoundMetrics(round_no=round_no)
                first = skip
                # Each batch is one send.  The header is just the first
                # frame of the round's first batch — no dedicated send
                # for it, unless the round has no frame at all.
                lead = header
                for tags, blob in self._encode_round(sends, skip, len(header)):
                    self._account_batch(metrics, round_stats, round_no, first, tags)
                    first += len(tags)
                    await stream.send(lead + blob if lead else blob)
                    names.RUNTIME_BATCH_FLUSHES.add()
                    lead = b""
                if lead:
                    await stream.send(lead)
                    names.RUNTIME_BATCH_FLUSHES.add()
                round_stats.duration_s = time.monotonic() - round_started
                if round_stats.messages:
                    metrics.rounds.append(round_stats)
                round_span.set(
                    messages=round_stats.messages,
                    bytes=round_stats.bytes_sent,
                    resumed_at=skip,
                )
            round_no += 1

    def _encode_round(
        self, sends: RoundSends, skip: int, queued: int
    ) -> Iterator[Tuple[List[int], bytes]]:
        """Wire bytes of ``sends`` from message ``skip`` on, a batch at a time.

        Per round: the kind → tag map, the per-slot digests of the rows
        that carry a checksum, and the codec's header pack.  Page bytes
        are fetched :data:`DIGEST_SLICE_PAGES` ids at a time as the codec
        reaches them, so a round never holds the whole image.
        """
        kinds = sends.kinds[skip:]
        slots = sends.slots[skip:]
        with_digest = (kinds == KIND_FULL) | (kinds == KIND_CHECKSUM)
        with_page = (kinds == KIND_FULL) | (kinds == KIND_PLAIN)
        return self.codec.encode_pages(
            _TAG_OF_KIND[kinds],
            slots,
            # Only first-round rows carry a checksum, and a first-round
            # row sends its slot's content as of the digest pass.
            digests=map(self._slot_digests.__getitem__, slots[with_digest].tolist()),
            pages=self._pages_of(sends.content_ids[skip:][with_page].tolist()),
            refs=sends.refs[skip:][kinds == KIND_REF].tolist(),
            batch_bytes=BATCH_BYTES,
            queued=queued,
        )

    def _pages_of(self, content_ids: List[int]) -> Iterator[bytes]:
        pages_for = self.state.pagestore.pages_for
        for start in range(0, len(content_ids), DIGEST_SLICE_PAGES):
            yield from pages_for(content_ids[start : start + DIGEST_SLICE_PAGES])

    def _account_batch(
        self,
        metrics: MigrationMetrics,
        round_stats: RoundMetrics,
        round_no: int,
        first: int,
        tags: List[int],
    ) -> None:
        """Byte accounting for one batch, messages ``first`` onward.

        ``self._counted`` holds one sent-before flag per message of each
        round, kept through every reconnect and fresh session of one
        :meth:`migrate`: a frame already flagged is a retransmission,
        everything else is first-time payload and gets flagged, so a
        frame is never counted as payload twice no matter how the
        stream is resumed.  Flags rather than a high-water mark, because
        a desynced READY can make a connection start mid-round and the
        fresh session after it start over.
        Frame sizes depend on the tag alone, so both sums are a count
        per tag times its size.
        """
        end = first + len(tags)
        counted = self._counted.setdefault(round_no, bytearray())
        counted.extend(bytes(max(end - len(counted), 0)))
        sent_before = counted[first:end]
        fresh = tags
        if any(sent_before):
            resent = [tag for tag, seen in zip(tags, sent_before) if seen]
            for _, _, num_bytes in self._tally(resent):
                metrics.retransmitted_bytes += num_bytes
            fresh = [tag for tag, seen in zip(tags, sent_before) if not seen]
        for name, messages, num_bytes in self._tally(fresh):
            metrics.count(name, num_bytes, messages)
            round_stats.messages += messages
            round_stats.bytes_sent += num_bytes
        counted[first:end] = b"\x01" * len(tags)

    def _tally(self, tags: List[int]) -> Iterator[Tuple[str, int, int]]:
        """``(kind name, frames, wire bytes)`` for each kind among ``tags``."""
        for tag, size in self.codec.page_frame_bytes.items():
            frames = tags.count(tag)
            if frames:
                yield FRAME_NAMES[tag], frames, frames * size

    async def _finish_result(self, frame, metrics: MigrationMetrics) -> None:
        metrics.control_bytes += frame.wire_bytes
        body = frame.body or {}
        generation = body.get("checkpoint_generation")
        if generation is not None:
            self.result_generation = int(generation)
        metrics.sink_stats = {
            "reused_in_place": body.get("reused_in_place", 0),
            "reused_from_store": body.get("reused_from_store", 0),
            "unique_contents": body.get("unique_contents", 0),
            "rx_payload_bytes": body.get("rx_payload_bytes", 0),
        }
        if not body.get("ok", False):
            raise MigrationError(
                "verification",
                body.get("error") or "destination rejected the final image",
            )
