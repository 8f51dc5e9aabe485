"""Oracle for the run path: ``decode_pages`` → ``apply_pages`` against a
literal per-frame reference (hypothesis).

The daemon decodes and applies eight or more consecutive FULL (or
CHECKSUM) frames by column.  The reference below is the frame-at-a-time
decoder and applier this repository had before runs existed,
transcribed: one tuple per frame, one ``put`` / ``retain`` / ``release``
per slot — except that a slot still borrowed from the preloaded
checkpoint releases nothing when first rewritten, and becomes one the
session owns.  For any frame sequence — all four kinds, runs on both sides
of the threshold, repeated slots inside a run, an out-of-range slot, an
unannounced checksum or a dangling REF anywhere — cut at any byte, both
must decode the same fields, consume the same bytes, count the same,
fail with the same code after the same number of applied frames, and
leave the same slots, owned slots, reference counts and stored bytes
behind.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.checksum import MD5
from repro.core.fingerprint import Fingerprint
from repro.core.protocol import WireFormat
from repro.core.transfer import Method
from repro.mem.pagestore import PageStore
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.sink import SinkProtocolError, _SinkSession
from tests.runtime.test_frames_batch import encode_single
from repro.runtime.frames import (
    RUN_MIN_FRAMES,
    FrameCodec,
    PageRun,
    TYPE_PAGE_CHECKSUM,
    TYPE_PAGE_FULL,
    TYPE_PAGE_PLAIN,
    TYPE_PAGE_REF,
)

SLOTS = 64
PAGE = 64
WIRE = WireFormat(page_size=PAGE)
CODEC = FrameCodec(WIRE)
KINDS = (TYPE_PAGE_FULL, TYPE_PAGE_CHECKSUM, TYPE_PAGE_REF, TYPE_PAGE_PLAIN)

CHECKPOINT_IDS = np.arange(1, SLOTS + 1, dtype=np.uint64) % 12 + 1
"""The preloaded image: twelve contents, each in five or six slots."""


def contents():
    """Twelve page contents a frame can carry: the checkpoint's own
    (so CHECKSUM frames resolve and slots move between known contents)
    and six the sink has never seen."""
    store = PageStore(page_size=PAGE)
    pages = [store.page_bytes(cid) for cid in range(1, 7)]
    pages += [bytes([0xA0 + i]) * PAGE for i in range(6)]
    return [(hashlib.md5(page).digest(), page) for page in pages]


POOL = contents()
UNANNOUNCED = b"\xee" * CODEC.digest_size


# --- the reference: one frame at a time -----------------------------------


def reference_decode(codec, data: bytes, max_frames: int):
    sizes = codec.page_frame_bytes
    frames = []
    position, end = 0, len(data)
    while position < end and len(frames) < max_frames:
        tag = data[position]
        size = sizes.get(tag)
        if size is None or position + size > end:
            break
        start = position + 1
        body = start + codec._page_no_bytes
        page_no = int.from_bytes(data[start:body], "big")
        if tag == TYPE_PAGE_CHECKSUM:
            fields = (tag, page_no, data[body : body + codec.digest_size], b"", -1)
        elif tag == TYPE_PAGE_FULL:
            page = body + codec.digest_size
            fields = (tag, page_no, data[body:page],
                      data[page : page + codec.page_size], -1)
        elif tag == TYPE_PAGE_PLAIN:
            fields = (tag, page_no, b"", data[body : body + codec.page_size], -1)
        else:
            ref = int.from_bytes(data[body : body + codec._ref_bytes], "big")
            fields = (tag, page_no, b"", b"", ref)
        frames.append(fields)
        position += size
    return frames, position


def reference_apply(session, frames, frame_bytes) -> None:
    slot_digests, store, num_pages = session.slot_digests, session.store, session.num_pages
    # Copy-on-write: a slot still borrowed from the preloaded checkpoint
    # holds no reference of the session's, so rewriting it releases
    # nothing and makes it the session's own.
    borrowing, owned = session.base is not None, session._owned

    def set_slot(slot, digest):
        old = slot_digests[slot]
        if old == digest:
            return
        store.retain(digest)
        if borrowing and slot not in owned:
            owned.add(slot)
        elif old is not None:
            store.release(old)
        slot_digests[slot] = digest

    applied = in_place = from_store = 0
    try:
        for tag, slot, digest, payload, ref in frames:
            if not 0 <= slot < num_pages:
                raise SinkProtocolError("bad-slot", f"page number {slot}")
            if tag == TYPE_PAGE_CHECKSUM:
                if slot_digests[slot] == digest:
                    in_place += 1
                elif digest in store:
                    set_slot(slot, digest)
                    from_store += 1
                else:
                    raise SinkProtocolError("missing-content", f"page {slot}")
            elif tag == TYPE_PAGE_FULL:
                store.put(digest, payload)
                set_slot(slot, digest)
            elif tag == TYPE_PAGE_PLAIN:
                digest = session.algorithm.digest(payload)
                store.put(digest, payload)
                set_slot(slot, digest)
            else:
                if not 0 <= ref < num_pages:
                    raise SinkProtocolError("bad-ref", f"slot {ref} out of range")
                target = slot_digests[ref]
                if target is None:
                    raise SinkProtocolError("bad-ref", f"slot {ref} not received")
                set_slot(slot, target)
            applied += 1
    finally:
        session.reused_in_place += in_place
        session.reused_from_store += from_store
        session.pages_received += applied
        session.applied_in_round += applied
        session.total_applied += applied
        session.rx_payload_bytes += sum(
            frame_bytes[frame[0]] for frame in frames[:applied]
        )
        session.apply_batches += 1


# --- frame sequences ------------------------------------------------------


@st.composite
def stretches(draw):
    """A few stretches of one kind each, 1–40 frames long, walking the
    slots and the content pool by drawn strides; then the defects."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        tag = draw(st.sampled_from(KINDS))
        length = draw(st.integers(1, 40))
        # Few starting points, so stretches meet: a later one rewrites
        # the slots, or lets go of the contents, an earlier one filled.
        slot, content = draw(st.sampled_from([0, 5, 32])), draw(st.integers(0, 2))
        step = draw(st.sampled_from([1, 1, 3, SLOTS - 1]))
        for i in range(length):
            digest, page = POOL[(content + i) % len(POOL)]
            rows.append([tag, (slot + i * step) % SLOTS, digest, page,
                         (slot + i + 7) % SLOTS])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows) - 1))
        defect = draw(st.sampled_from(["repeat", "range", "unannounced", "ref"]))
        if defect == "repeat" and at:
            # The same slot twice within reach of one run.
            rows[at][1] = rows[draw(st.integers(max(0, at - 9), at - 1))][1]
        elif defect == "range":
            rows[at][1] = SLOTS + draw(st.integers(0, 3))
        elif defect == "unannounced":
            rows[at][2] = UNANNOUNCED
        elif defect == "ref":
            rows[at][4] = draw(st.sampled_from([SLOTS, SLOTS + 9, 2**40]))
    return [tuple(row) for row in rows]


def encode(row) -> bytes:
    return encode_single(CODEC, row)


class World:
    """One daemon, one session in it; ``preload`` hosts a checkpoint."""

    def __init__(self, preload: bool) -> None:
        self.daemon = CheckpointDaemon(pagestore=PageStore(page_size=PAGE))
        hosted = None
        if preload:
            hosted = self.daemon.install_checkpoint(
                "vm", Fingerprint(hashes=CHECKPOINT_IDS)
            )
        self.session = _SinkSession(
            "s", "vm", SLOTS, Method.HASHES_DEDUP, MD5, self.daemon.store, hosted
        )
        self.daemon._sessions["s"] = self.session

    def feed(self, apply, decoded):
        """Apply one batch; the failure code, if it failed."""
        try:
            apply(self.session, decoded, CODEC.page_frame_bytes)
        except SinkProtocolError as exc:
            return exc.code
        return None

    def state(self):
        session, store = self.session, self.daemon.store
        return {
            "pages_received": session.pages_received,
            "applied_in_round": session.applied_in_round,
            "total_applied": session.total_applied,
            "reused_in_place": session.reused_in_place,
            "reused_from_store": session.reused_from_store,
            "rx_payload_bytes": session.rx_payload_bytes,
            "apply_batches": session.apply_batches,
            "slot_digests": list(session.slot_digests),
            "owned_slots": sorted(session._owned),
            "refcounts": store.refcounts(),
            "stored_bytes": store.stored_bytes,
            "resident": len(store),
        }


def check_batch(runs_world, frames_world, rows, cut=None, budget=None):
    """Decode and apply ``rows`` both ways; returns the failure code."""
    blob = b"".join(map(encode, rows))
    cut = len(blob) if cut is None else cut
    budget = len(rows) if budget is None else budget
    arena = bytearray(blob[:cut])
    decoded, consumed = CODEC.decode_pages(memoryview(arena), budget)
    # Whatever was decoded owns its bytes: the arena may be reused.
    arena[:] = bytes(len(arena))
    frames, reference_consumed = reference_decode(CODEC, blob[:cut], budget)
    assert decoded.rows() == frames
    assert decoded == frames
    assert (len(decoded), consumed) == (len(frames), reference_consumed)

    failed = runs_world.feed(_SinkSession.apply_pages, decoded)
    reference_failed = frames_world.feed(reference_apply, frames)
    assert failed == reference_failed
    assert runs_world.state() == frames_world.state()
    assert runs_world.daemon.audit_store() == []
    return failed


def full(slot, content):
    return (TYPE_PAGE_FULL, slot, *POOL[content], -1)


def checksum(slot, content):
    return (TYPE_PAGE_CHECKSUM, slot, POOL[content][0], b"", -1)


class TestRunsEqualThePerFrameReference:
    @given(
        preload=st.booleans(),
        batches=st.lists(stretches(), min_size=1, max_size=2),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_decode_and_apply(self, preload, batches, data):
        runs_world, frames_world = World(preload), World(preload)
        for rows in batches:
            cut = data.draw(
                st.integers(0, sum(len(encode(row)) for row in rows)), label="cut"
            )
            budget = data.draw(
                st.one_of(st.just(len(rows) + 1), st.integers(0, len(rows))),
                label="max_frames",
            )
            if check_batch(runs_world, frames_world, rows, cut, budget):
                break

    def test_a_run_rewriting_content_only_it_holds_keeps_the_page(self):
        # Every new digest is retained before any old one is released:
        # the other way round the sole reference drops to zero, the page
        # is evicted, and the slot ends up pointing at nothing.
        runs_world, frames_world = World(False), World(False)
        first = [full(slot, slot) for slot in range(10)]
        again = [full(slot, (slot + 1) % 10) for slot in range(10)]
        assert check_batch(runs_world, frames_world, first) is None
        assert check_batch(runs_world, frames_world, again) is None
        assert runs_world.state()["resident"] == 10

    def test_a_run_over_owned_and_borrowed_slots_releases_only_the_owned(self):
        # Slots 0-9 become the session's own; the second run rewrites
        # five of them again (their references go) and five slots still
        # borrowed from the checkpoint (whose references stay its).
        runs_world, frames_world = World(True), World(True)
        first = [full(slot, 6 + slot % 6) for slot in range(10)]
        again = [full(slot, 7 + slot % 5) for slot in range(5, 15)]
        assert check_batch(runs_world, frames_world, first) is None
        assert check_batch(runs_world, frames_world, again) is None
        assert runs_world.state()["owned_slots"] == list(range(15))

    def test_a_checksum_run_that_lets_go_of_what_it_resolves_fails_in_order(self):
        # Slot 0 gives up the only reference to content 0 before slot 9
        # asks the store for it: frame by frame that is missing content
        # after nine applied frames, so the run may not be swapped whole.
        runs_world, frames_world = World(False), World(False)
        first = [full(slot, slot) for slot in range(10)]
        rotate = [checksum(slot, (slot + 1) % 10) for slot in range(10)]
        assert check_batch(runs_world, frames_world, first) is None
        assert check_batch(runs_world, frames_world, rotate) == "missing-content"
        assert runs_world.session.total_applied == 19

    def test_long_homogeneous_stretches_do_become_runs(self):
        rows = [
            (TYPE_PAGE_FULL, slot, *POOL[slot % 12], -1)
            for slot in range(RUN_MIN_FRAMES)
        ]
        rows += [
            (TYPE_PAGE_CHECKSUM, slot, POOL[slot % 12][0], b"", -1)
            for slot in range(RUN_MIN_FRAMES - 1)
        ]
        decoded, _ = CODEC.decode_pages(b"".join(map(encode, rows)), len(rows))
        full, short = decoded.runs
        assert isinstance(full, PageRun) and len(full.slots) == RUN_MIN_FRAMES
        # One frame under the threshold stays a list of per-frame tuples.
        assert short == rows[RUN_MIN_FRAMES:]

    def test_a_run_is_applied_without_a_call_per_page(self, monkeypatch):
        world = World(preload=True)
        calls = []
        for name in ("put", "retain", "release"):
            monkeypatch.setattr(
                type(world.daemon.store), name,
                lambda self, *args, _name=name: calls.append(_name),
            )
        rows = [(TYPE_PAGE_FULL, slot, *POOL[6 + slot % 6], -1) for slot in range(40)]
        decoded, _ = CODEC.decode_pages(b"".join(map(encode, rows)), len(rows))
        assert world.feed(_SinkSession.apply_pages, decoded) is None
        assert world.session.total_applied == 40
        assert calls == []
        assert world.daemon.audit_store() == []
