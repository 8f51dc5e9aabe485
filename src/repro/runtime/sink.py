"""The receiving half of one migration: a sink session.

A :class:`_SinkSession` is the destination's state for one migration —
the image being assembled slot by slot, the resume point a reconnecting
source is told, the counts RESULT reports.  It merges the incoming page
frames per Listing 1 (in-place reuse when the local page already
matches, content-store lookup for relocated pages) and verifies the
final image; the daemon (:mod:`repro.runtime.daemon`) owns its
lifecycle and the socket.
"""

from __future__ import annotations

from operator import eq, itemgetter
from typing import List, Mapping, Optional, Sequence, Set

from repro.core.checksum import DEFAULT_CHECKSUM, ChecksumAlgorithm
from repro.core.transfer import Method
from repro.mem.pagestore import ContentAddressedStore
from repro.runtime.frames import (
    Frame,
    PageRun,
    PageRuns,
    TYPE_PAGE_CHECKSUM,
    TYPE_PAGE_FULL,
    TYPE_PAGE_PLAIN,
    TYPE_PAGE_REF,
)
from repro.runtime.hosted import HostedCheckpoint


class SinkProtocolError(RuntimeError):
    """The incoming stream violated the protocol (non-retryable)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.detail = message


class _SinkSession:
    """Receiver state for one migration, persistent across reconnects.

    Copy-on-write over the preloaded checkpoint: the session *borrows*
    the content-store references its ``base`` checkpoint holds for every
    slot, and owns one of its own only for a slot it rewrote (the slots
    in ``_owned``).  So opening a session over an unchanged image and
    applying its checksum frames move no reference at all.  Without a
    base every filled slot is owned.  The daemon keeps the base alive
    for as long as it is borrowed: before a checkpoint is replaced or
    dropped, every session borrowing it takes references of its own
    (:meth:`own_borrowed`).
    """

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
        self.base = preload
        self._owned: Set[int] = set()
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
        applied: List[int] = []  # the tag of every frame applied on its own
        in_runs = run_bytes = 0  # frames applied as whole runs, their bytes
        in_place = from_store = 0
        try:
            for run in decoded.runs:
                if isinstance(run, PageRun):
                    if self._apply_run(run):
                        in_runs += len(run.slots)
                        run_bytes += len(run.slots) * frame_bytes[run.tag]
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
            frames = in_runs + len(applied)
            self.reused_in_place += in_place
            self.reused_from_store += from_store
            self.pages_received += frames
            self.applied_in_round += frames
            self.total_applied += frames
            self.rx_payload_bytes += run_bytes + sum(
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
        replaced one the session owned released), which ends where the
        loop ends.  A CHECKSUM run that names every slot's current
        digest is one comparison (:meth:`DigestColumn.matches`).  A
        CHECKSUM frame that changes its slot resolves its digest from
        the store *at its turn*: the swap is order-free only while no
        digest a frame needs is one another frame lets go of, and a
        digest the store lacks is the loop's error to raise at the right
        frame.
        """
        tag, slots, digests, pages = run
        slot_digests, store = self.slot_digests, self.store
        if min(slots) < 0 or max(slots) >= self.num_pages:
            return False
        replaced = itemgetter(*slots)(slot_digests)
        if tag == TYPE_PAGE_CHECKSUM and digests.matches(replaced):
            # Nothing changes, so a slot named twice changes nothing either.
            self.reused_in_place += len(slots)
            return True
        if len(set(slots)) != len(slots):
            return False
        if tag == TYPE_PAGE_FULL:
            store.put_many(digests, pages)
        in_place = 0
        if any(map(eq, digests, replaced)):
            # Frames that leave their slot as it is move no reference.
            moved = [
                (slot, new, old)
                for slot, new, old in zip(slots, digests, replaced)
                if new != old
            ]
            if not moved:
                return True
            in_place = len(slots) - len(moved)
            slots, digests, replaced = zip(*moved)
        if tag == TYPE_PAGE_CHECKSUM:
            wanted = set(digests)
            if not wanted.isdisjoint(replaced) or any(
                digest not in store for digest in wanted
            ):
                return False
            self.reused_in_place += in_place
            self.reused_from_store += len(slots)
        store.retain_many(digests)
        self._let_go(slots, replaced)
        for slot, digest in zip(slots, digests):
            slot_digests[slot] = digest
        return True

    def _let_go(self, slots: Sequence[int], replaced: Sequence[Optional[bytes]]) -> None:
        """``slots`` (distinct) are being rewritten from ``replaced``:
        release what the session owned, and own every one from now on."""
        if self.base is None:
            self.store.release_many(replaced)
            return
        owned = self._owned
        if not owned.isdisjoint(slots):
            self.store.release_many(
                [old for slot, old in zip(slots, replaced) if slot in owned]
            )
        owned.update(slots)

    def _set_slot(self, slot: int, digest: bytes) -> None:
        """Assign ``digest`` to ``slot``, moving the store references."""
        old = self.slot_digests[slot]
        if old == digest:
            return
        self.store.retain(digest)
        if self.base is None or slot in self._owned:
            if old is not None:
                self.store.release(old)
        else:
            self._owned.add(slot)
        self.slot_digests[slot] = digest

    @property
    def pristine(self) -> bool:
        """Whether the image is still exactly its base's: no slot rewritten."""
        return self.base is not None and not self._owned

    def owned_digests(self) -> List[bytes]:
        """The digest of every slot the session holds a reference for."""
        if self.base is None:
            return [digest for digest in self.slot_digests if digest is not None]
        return [self.slot_digests[slot] for slot in self._owned]

    def own_borrowed(self) -> None:
        """The base is about to lose its references: retain one for every
        slot still borrowed from it, and stop borrowing."""
        if self.base is None:
            return
        owned = self._owned
        self.store.retain_many(
            [d for slot, d in enumerate(self.slot_digests) if slot not in owned]
        )
        self.base = None
        owned.clear()

    def release_refs(self) -> int:
        """Give up the session's references and its base (idempotent).

        Called when the session is retired from the retention map;
        returns resident bytes freed from the content store.
        """
        if self._refs_released:
            return 0
        self._refs_released = True
        freed = self.store.release_many(self.owned_digests())
        self.slot_digests = []
        self.base = None
        self._owned.clear()
        return freed

    def hand_over(self) -> List[bytes]:
        """The image became a checkpoint: its slot list and the references
        the session owns are that checkpoint's now, and so — when the
        base is the checkpoint it replaces — are the base's references
        for the slots still borrowed.  Returns the base's digests of the
        slots the session rewrote: references nobody inherits, for the
        caller to release (none without a base).  Lets go of the base;
        what stays is the shape :meth:`restore` builds — a RESULT to
        replay, nothing to release."""
        rewritten = []
        if self.base is not None:
            base_slots = self.base.slot_digests
            rewritten = [base_slots[slot] for slot in self._owned]
        self.slot_digests = []
        self.base = None
        self._owned.clear()
        self._refs_released = True
        return rewritten

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
            "unique_contents": len(
                self.base.distinct if self.pristine else set(self.slot_digests)
            ),
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
