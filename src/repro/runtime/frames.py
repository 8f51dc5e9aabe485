"""Wire framing for the live migration runtime.

Every byte the runtime moves is one of the frames declared in
:data:`repro.core.protocol.FRAMES` (``docs/runtime.md``, "Wire
framing", shows the table).  :class:`FrameCodec` derives every encoder
and decoder here from those rows, as the analytic model derives its
message sizes, so the bytes a live migration writes to a socket and the
bytes the model predicts are the *same numbers*, not merely similar ones.

Control frames (HELLO/READY/RESULT/ERROR) carry small JSON bodies and
are accounted separately as control traffic; the bulk ANNOUNCE frame
adds :data:`~repro.core.protocol.ANNOUNCE_FRAME_OVERHEAD` bytes of
framing on top of the analytic checksum volume.

The HEARTBEAT/INVENTORY pair is the cluster control plane's liveness
probe (:mod:`repro.orchestrator`): a controller sends HEARTBEAT (body
``{}``) instead of HELLO, and the daemon answers with its inventory
report, the two facts placement reads: ``active_sessions`` and
``checkpoints``, a map from each hosted VM's id to its bottom-k sketch
(hex digests).  TELEMETRY works the same way for metrics: a controller
(or `vecycle top`) sends a TELEMETRY request frame (body ``{}``) and
the daemon answers with one TELEMETRY frame carrying its
sequence-numbered :class:`~repro.obs.telemetry.MetricsSnapshot`.  The
daemon reads neither request body.  A connection that opens with either
is a control channel: the daemon answers such requests on it until the
peer hangs up or idles past the daemon's I/O timeout.  All three are
JSON control frames and are never mixed into a migration session.

A round's page frames travel in bulk in both directions without
changing a byte of their layouts.  :meth:`FrameCodec.encode_pages`
joins them into one blob per write batch (a batch of one kind straight
from its columns, a CHECKSUM one as one numpy record pack), and
:meth:`FrameCodec.decode_pages` is the one decoder of a received
buffer's page frames: it returns :class:`PageRuns`, in which
:data:`RUN_MIN_FRAMES` or more consecutive FULL (or CHECKSUM) frames
are one :class:`PageRun` split by column — each page copied out of the
buffer exactly once, a CHECKSUM run's digests kept as one blob — and
everything shorter, mixed, REF or PLAIN keeps its frame-by-frame order.
The single-frame encoders and :meth:`FrameCodec.read_frame` remain the
reference both are tested against.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.protocol import (
    FRAME_NAMES, FRAMES, PAGE_FRAME_TYPES, TYPE_ANNOUNCE, TYPE_COMPLETE, TYPE_ERROR,
    TYPE_HEARTBEAT, TYPE_HELLO, TYPE_INVENTORY, TYPE_PAGE_CHECKSUM, TYPE_PAGE_FULL,
    TYPE_PAGE_PLAIN, TYPE_PAGE_REF, TYPE_READY, TYPE_RESULT, TYPE_ROUND, TYPE_TELEMETRY,
    WireFormat, frame_structs,
)

_MAX_JSON_BODY = 1 << 20
_MAX_ANNOUNCE_COUNT = 1 << 28


class FrameError(RuntimeError):
    """The byte stream does not parse as a valid protocol frame."""


class StreamDesyncError(FrameError):
    """The stream lost frame alignment (an unrecognised type tag, or a
    READY whose flag bytes are not booleans).

    Unlike a structural violation *inside* a known frame (bad JSON, an
    oversized body), an unknown tag almost always means the reader is
    mid-frame — e.g. the peer truncated a frame and kept writing, so the
    next read lands on payload bytes.
    The session's byte stream is poisoned, but the *fault* is a
    transport-shaped one: reconnecting with a fresh session recovers,
    so callers may treat this as retryable where a genuine codec
    violation must fail fast.
    """


class PeerError(FrameError):
    """The peer reported a structured ERROR frame instead of desyncing.

    ``code`` is the peer's machine-readable error code (e.g. ``desync``
    when a daemon detected misaligned bytes on its side, or
    ``bad-slot`` for a genuine protocol violation).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"peer error [{code}]: {message}")
        self.code = code


@dataclass(frozen=True, slots=True)
class Frame:
    """One decoded protocol frame, as :meth:`FrameCodec.read_frame` returns it.

    Control frames and single page frames come back in this shape.  A
    round's page frames do not: the daemon decodes them a buffer at a
    time with :meth:`FrameCodec.decode_pages`, which yields
    :class:`PageRuns`, so no ``Frame`` is allocated per page on that path.
    """

    type: int
    page_no: int = -1
    digest: bytes = b""
    payload: bytes = b""
    ref: int = -1
    round_no: int = 0
    count: int = 0
    applied: int = 0
    announce_follows: bool = False
    completed: bool = False
    digests: Tuple[bytes, ...] = ()
    body: Optional[Dict[str, Any]] = None
    wire_bytes: int = 0

    @property
    def name(self) -> str:
        return FRAME_NAMES.get(self.type, f"0x{self.type:02x}")


PageFields = Tuple[int, int, bytes, bytes, int]
"""One decoded page frame: ``(tag, page_no, digest, payload, ref)``, with
``b""`` / ``-1`` for the fields its kind does not carry — the same
values the corresponding :class:`Frame` attributes hold."""

RUN_MIN_FRAMES = 8
"""Consecutive FULL (or CHECKSUM) frames from this many on are decoded
and applied by column; a shorter stretch costs less frame by frame than
a run's fixed set-up does (``docs/runtime.md``, "Receive path")."""

_RUN_SCAN_FRAMES = 256
"""Frames whose tags the first look-ahead reads; each further one reads
four times as many.  A short run inside a buffer of thousands of
checksum frames does not pay for scanning all of them, and a long one
is found in a few scans, not one per window."""


def _split_digests(blob: bytes, size: int) -> List[bytes]:
    """``blob`` cut into ``size``-byte digests, by one numpy pass."""
    return np.frombuffer(blob, dtype=f"V{size}").tolist()


class DigestColumn(Sequence[bytes]):
    """A CHECKSUM run's digests, kept as the one blob they arrived in.

    Frame ``i``'s digest is ``blob[i * size : (i + 1) * size]``.  The
    sink compares the whole column against a run's current slots with
    one join (:meth:`matches`); only a run that changes a slot reads
    the digests one by one, and the blob is split once for it.
    """

    __slots__ = ("blob", "size", "_split")

    def __init__(self, blob: bytes, size: int) -> None:
        self.blob = blob
        self.size = size
        self._split: Optional[List[bytes]] = None

    def __len__(self) -> int:
        return len(self.blob) // self.size

    def __getitem__(self, index):
        return self.digests()[index]

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.digests())

    def digests(self) -> List[bytes]:
        """The digests one by one (split on first use)."""
        if self._split is None:
            self._split = _split_digests(self.blob, self.size)
        return self._split

    def matches(self, digests: Sequence[Optional[bytes]]) -> bool:
        """Whether ``digests`` (``size`` bytes each, or None) are these,
        in order: one join and one comparison, no call per digest."""
        if len(digests) != len(self):
            return False
        try:
            return b"".join(digests) == self.blob
        except TypeError:  # a None: a slot not received yet
            return False


class PageRun(NamedTuple):
    """:data:`RUN_MIN_FRAMES` or more consecutive page frames of one
    kind, FULL or CHECKSUM, split by column (``pages`` is empty for
    CHECKSUM, whose ``digests`` are a :class:`DigestColumn`).  Every
    value is its own object: nothing here refers to the buffer it was
    decoded from."""

    tag: int
    slots: Sequence[int]
    digests: Sequence[bytes]
    pages: Sequence[bytes] = ()

    def rows(self) -> List[PageFields]:
        """The run frame by frame, as :meth:`FrameCodec._split_page` tuples."""
        pages = self.pages or repeat(b"")
        return [
            (self.tag, slot, digest, page, -1)
            for slot, digest, page in zip(self.slots, self.digests, pages)
        ]


class PageRuns:
    """The page frames :meth:`FrameCodec.decode_pages` found, in wire order.

    ``runs`` alternates between :class:`PageRun` columns and plain lists
    of :data:`PageFields` — the stretches that are short, mixed, REF or
    PLAIN and keep their frame-by-frame order.  ``len()`` is the number
    of frames, and the object compares equal to the list :meth:`rows`
    returns, so "what was decoded" can be stated frame by frame.
    """

    __slots__ = ("runs", "_frames")

    def __init__(
        self, runs: List[Union[PageRun, List[PageFields]]], frames: int
    ) -> None:
        self.runs = runs
        self._frames = frames

    def __len__(self) -> int:
        return self._frames

    def rows(self) -> List[PageFields]:
        """Every frame as one tuple, runs flattened."""
        return list(
            chain.from_iterable(
                run.rows() if isinstance(run, PageRun) else run
                for run in self.runs
            )
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PageRuns):
            other = other.rows()
        return self.rows() == other

    def __repr__(self) -> str:
        return f"PageRuns({self.rows()!r})"


class FrameCodec:
    """Encode/decode frames for one migration session.

    Page and digest sizes are negotiated in the HELLO exchange.  Every
    struct and record the codec packs or unpacks is the ``wire``'s
    layout of a :data:`~repro.core.protocol.FRAMES` row, the layouts
    the analytic model sizes its messages by.

    ``page_frame_bytes`` maps each page-frame tag to its wire size.
    Every page encoder and decoder here — single frame or batch — takes
    its sizes from that one table.
    """

    def __init__(self, wire: WireFormat = WireFormat()) -> None:
        self.wire = wire
        self.page_size = wire.page_size
        self.digest_size = wire.checksum_bytes
        self.page_frame_bytes: Dict[int, int] = {
            tag: wire.message_bytes(FRAME_NAMES[tag])
            for tag in sorted(PAGE_FRAME_TYPES)
        }
        # Every frame's body as one struct, and every frame whole (tag
        # byte first) for its encoder.  The two page kinds that come in
        # runs also get a record that skips the tag byte, to iterate.
        self._bodies = wire.bodies
        self._frames = frame_structs(wire, "B")
        runs = frame_structs(wire, "x")
        self._run_records = {tag: runs[tag] for tag in (TYPE_PAGE_FULL, TYPE_PAGE_CHECKSUM)}
        self._ref_bytes = wire.ref_message - wire.header_bytes
        # A CHECKSUM frame as a numpy record, ``tag | page_no | digest``,
        # to decode a run in one frombuffer; its ``tag | page_no`` head
        # to pack every page frame's head at once; and ``head | digest``
        # to encode a CHECKSUM batch in one pack.
        items = wire.layout(TYPE_PAGE_CHECKSUM).split()
        columns = [("tag", "u1")] + [
            (name, f"V{item[:-1]}" if item.endswith("s") else ">" + item)
            for name, item in zip(FRAMES[TYPE_PAGE_CHECKSUM].fields, items)
        ]
        self._checksum_in = np.dtype(columns)
        self._head = np.dtype(columns[:2])
        self._checksum_out = np.dtype([
            ("head", f"V{self._head.itemsize}"), ("digest", self._checksum_in["digest"]),
        ])

    # --- encode ---------------------------------------------------------

    def _encode(self, tag: int, *values) -> bytes:
        """Fixed-layout frame ``tag`` whose body fields are ``values``."""
        record = self._frames[tag]
        try:
            frame = record.pack(tag, *values)
        except struct.error as exc:
            # What int.to_bytes raises for a number too wide for its field.
            raise OverflowError(f"{FRAME_NAMES[tag]} frame: {exc}") from None
        # struct pads or cuts a bytes value to its field's width.
        assert record.unpack(frame)[1:] == values, f"{FRAME_NAMES[tag]} field width"
        return frame

    def encode_page_full(self, page_no: int, digest: bytes, page: bytes) -> bytes:
        """A full-page data frame: header + checksum + page bytes (§3.2)."""
        return self._encode(TYPE_PAGE_FULL, page_no, digest, page)

    def encode_page_checksum(self, page_no: int, digest: bytes) -> bytes:
        """A checksum-only data frame: content already at the destination."""
        return self._encode(TYPE_PAGE_CHECKSUM, page_no, digest)

    def encode_page_ref(self, page_no: int, ref: int) -> bytes:
        """A dedup-reference data frame pointing at an earlier slot."""
        return self._encode(TYPE_PAGE_REF, page_no, ref)

    def encode_page_plain(self, page_no: int, page: bytes) -> bytes:
        """A plain page frame (baseline QEMU format, no checksum)."""
        return self._encode(TYPE_PAGE_PLAIN, page_no, page)

    def encode_pages(
        self,
        tags: Sequence[int],
        page_nos: Sequence[int],
        digests: Iterable[bytes],
        pages: Iterable[bytes],
        refs: Iterable[int],
        batch_bytes: int,
        queued: int = 0,
    ) -> Iterator[Tuple[List[int], bytes]]:
        """Encode a sequence of page frames, one blob per write batch.

        Yields ``(batch_tags, blob)``: ``blob`` is byte for byte the
        concatenation of what :meth:`encode_page_full` and its siblings
        produce for those rows.  A batch closes at the first frame
        boundary where ``batch_bytes`` are queued; ``queued`` bytes
        already wait ahead of the first batch (the ROUND header).

        ``tags`` and ``page_nos`` have one entry per frame.  The other
        three are read in row order by the kinds that carry them:
        ``digests`` by FULL and CHECKSUM rows, ``pages`` by FULL and
        PLAIN rows, ``refs`` by REF rows.  ``pages`` may be lazy; it is
        consumed one batch at a time.

        The ``tag | page_no`` headers of the whole sequence come from
        one big-endian pack, each blob from one ``join`` or one numpy
        pack, and the wire-size assertion is made once per blob.  A
        batch that is all CHECKSUM is one record array of ``head |
        digest`` filled from the headers and the joined digests; one that
        is all FULL is joined straight from its columns; only a mixed
        batch walks its frames.
        """
        tags = np.asarray(tags, dtype=np.uint8)
        sizes = np.zeros(256, dtype=np.int64)
        for tag, size in self.page_frame_bytes.items():
            sizes[tag] = size
        row_bytes = sizes[tags]
        if not row_bytes.all():
            raise FrameError("encode_pages got a tag that is not a page frame")
        ends = np.cumsum(row_bytes).tolist()
        heads = self._pack_page_heads(tags, np.asarray(page_nos, dtype=np.int64))
        head_bytes = self._head.itemsize
        head_cells = np.frombuffer(heads, dtype=self._checksum_out["head"])
        ref_bytes = self._ref_bytes
        digests, pages = iter(digests), iter(pages)
        next_digest, next_page = digests.__next__, pages.__next__
        next_ref = iter(refs).__next__
        tag_list = tags.tolist()
        start, sent = 0, -queued
        while start < len(tag_list):
            stop = min(
                bisect_left(ends, sent + batch_bytes, start) + 1, len(tag_list)
            )
            batch_tags = tag_list[start:stop]
            rows = stop - start
            at = start * head_bytes
            uniform = batch_tags.count(batch_tags[0]) == rows
            if uniform and batch_tags[0] == TYPE_PAGE_CHECKSUM:
                column = b"".join(islice(digests, rows))
                assert len(column) == rows * self.digest_size, "digest size"
                records = np.empty(rows, dtype=self._checksum_out)
                records["head"] = head_cells[start:stop]
                records["digest"] = np.frombuffer(
                    column, dtype=self._checksum_out["digest"]
                )
                blob = records.tobytes()
            elif uniform and batch_tags[0] == TYPE_PAGE_FULL:
                blob = b"".join(chain.from_iterable(zip(
                    [heads[i : i + head_bytes]
                     for i in range(at, stop * head_bytes, head_bytes)],
                    islice(digests, rows),
                    islice(pages, rows),
                )))
            else:
                pieces: List[bytes] = []
                append = pieces.append
                for tag in batch_tags:
                    append(heads[at : at + head_bytes])
                    at += head_bytes
                    if tag == TYPE_PAGE_CHECKSUM:
                        append(next_digest())
                    elif tag == TYPE_PAGE_FULL:
                        append(next_digest())
                        append(next_page())
                    elif tag == TYPE_PAGE_PLAIN:
                        append(next_page())
                    else:
                        append(next_ref().to_bytes(ref_bytes, "big"))
                blob = b"".join(pieces)
            assert len(blob) == ends[stop - 1] - (ends[start - 1] if start else 0)
            yield batch_tags, blob
            start, sent = stop, ends[stop - 1]

    def _pack_page_heads(self, tags: np.ndarray, page_nos: np.ndarray) -> bytes:
        """``tag | page_no`` for every row, packed big-endian in one go."""
        if page_nos.size and int(page_nos.min()) < 0:
            # What the single-frame encoders raise.
            raise OverflowError("page number does not fit its field")
        heads = np.empty(tags.shape[0], dtype=self._head)
        heads["tag"] = tags
        heads["page_no"] = page_nos
        return heads.tobytes()

    def encode_hello(self, body: Dict[str, Any]) -> bytes:
        """The session-opening handshake frame (JSON body)."""
        return self._encode_json(TYPE_HELLO, body)

    def encode_result(self, body: Dict[str, Any]) -> bytes:
        """The destination's final verdict frame (JSON body)."""
        return self._encode_json(TYPE_RESULT, body)

    def encode_error(self, body: Dict[str, Any]) -> bytes:
        """A structured protocol-error frame (JSON body)."""
        return self._encode_json(TYPE_ERROR, body)

    def encode_heartbeat(self, body: Dict[str, Any]) -> bytes:
        """A controller liveness probe (JSON body: ``{}``)."""
        return self._encode_json(TYPE_HEARTBEAT, body)

    def encode_inventory(self, body: Dict[str, Any]) -> bytes:
        """A daemon inventory report answering a HEARTBEAT (JSON body)."""
        return self._encode_json(TYPE_INVENTORY, body)

    def encode_telemetry(self, body: Dict[str, Any]) -> bytes:
        """A telemetry probe or its snapshot answer (JSON body).

        A request's body is ``{}``; the reply carries a serialized
        :class:`~repro.obs.telemetry.MetricsSnapshot`.
        """
        return self._encode_json(TYPE_TELEMETRY, body)

    def _encode_json(self, tag: int, body: Dict[str, Any]) -> bytes:
        encoded = json.dumps(body, separators=(",", ":")).encode("utf-8")
        return self._encode(tag, len(encoded)) + encoded

    @staticmethod
    def encode_ready(
        round_no: int, applied: int, announce_follows: bool, completed: bool
    ) -> bytes:
        """The destination's resume point: round, applied count, flags."""
        return _ANY_WIRE._encode(
            TYPE_READY, round_no, applied, announce_follows, completed
        )

    def encode_announce(self, digests: Sequence[bytes]) -> bytes:
        """The §3.2 bulk checksum announce (count + raw digests)."""
        frame = self._encode(TYPE_ANNOUNCE, len(digests)) + b"".join(digests)
        assert len(frame) == self.wire.announce_frame_bytes(len(digests))
        return frame

    @staticmethod
    def encode_round(round_no: int, count: int) -> bytes:
        """A round header: round number + how many page frames follow."""
        return _ANY_WIRE._encode(TYPE_ROUND, round_no, count)

    def encode_complete(self, rounds: int, verification_digest: bytes) -> bytes:
        """End of stream: round count + digest over per-slot digests."""
        return self._encode(TYPE_COMPLETE, rounds, verification_digest)

    # --- decode ---------------------------------------------------------

    def decode_pages(self, data, max_frames: int) -> Tuple[PageRuns, int]:
        """Decode the complete page frames at the front of ``data``.

        ``data`` is any bytes-like object — the daemon passes a
        ``memoryview`` of its stream's receive arena.  Returns
        ``(runs, consumed)``: up to ``max_frames`` frames as
        :class:`PageRuns` and the number of bytes they occupied.  The
        scan stops — consuming nothing further — at a frame whose tail
        has not arrived yet and at any tag that is not a page frame (a
        control frame or a desync, for :meth:`read_frame` to judge).
        Synchronous: the caller awaits once per buffer, not once per
        frame.

        :data:`RUN_MIN_FRAMES` or more consecutive FULL (or CHECKSUM)
        frames become one :class:`PageRun`.  A CHECKSUM run is one
        structured ``frombuffer`` of ``tag | page_no | digest`` records:
        the page numbers come out as one list and the digests as one
        :class:`DigestColumn` blob.  A FULL run's columns are unpacked by
        one ``struct`` pass that copies each page out of ``data`` exactly
        once.  Everything else goes through :meth:`_split_page` frame by
        frame.  Nothing returned refers to ``data``.
        """
        data = memoryview(data)
        sizes = self.page_frame_bytes
        split = self._split_page
        runs: List[Union[PageRun, List[PageFields]]] = []
        ordered: Optional[List[PageFields]] = None
        position, end, frames = 0, len(data), 0
        while position < end and frames < max_frames:
            tag = data[position]
            size = sizes.get(tag)
            if size is None or position + size > end:
                break
            if tag in self._run_records:
                # Two bytes say "no run here" for most mixed traffic.
                probe = position + (RUN_MIN_FRAMES - 1) * size
                if probe < end and data[probe] == tag and data[position + size] == tag:
                    length = self._run_length(
                        data[position:end], size, max_frames - frames
                    )
                    if length >= RUN_MIN_FRAMES:
                        runs.append(self._split_run(tag, data, position, length))
                        ordered = None
                        position, frames = position + length * size, frames + length
                        continue
            if ordered is None:
                ordered = []
                runs.append(ordered)
            ordered.append(split(tag, data, position + 1))
            position += size
            frames += 1
        return PageRuns(runs, frames), position

    def _split_run(self, tag: int, data: memoryview, start: int, length: int) -> PageRun:
        """The ``length`` frames of kind ``tag`` from ``start``, by column."""
        if tag == TYPE_PAGE_CHECKSUM:
            records = np.frombuffer(
                data, dtype=self._checksum_in, count=length, offset=start
            )
            return PageRun(
                tag,
                records["page_no"].tolist(),
                DigestColumn(records["digest"].tobytes(), self.digest_size),
            )
        stop = start + length * self.page_frame_bytes[tag]
        slots, digests, pages = zip(*self._run_records[tag].iter_unpack(data[start:stop]))
        return PageRun(tag, slots, digests, pages)

    @staticmethod
    def _run_length(data: memoryview, size: int, max_frames: int) -> int:
        """How many whole ``size``-byte frames at the front of ``data``
        carry the first one's tag.  The tags are read a window at a
        time, from :data:`_RUN_SCAN_FRAMES` on and four times larger
        each time the whole window matched."""
        fit = min(len(data) // size, max_frames)
        tag = bytes(data[:1])
        length, window = 0, _RUN_SCAN_FRAMES
        while length < fit:
            upto = min(fit, length + window)
            tags = bytes(data[length * size : upto * size : size])
            length = upto - len(tags.lstrip(tag))
            if length < upto:
                break
            window *= 4
        return length

    def _split_page(self, tag: int, data, start: int) -> PageFields:
        """The fields of one page frame whose tag byte precedes ``start``
        in the bytes-like ``data``; each field is its own object."""
        page_no, *fields = self._bodies[tag].unpack_from(data, start)
        if tag == TYPE_PAGE_CHECKSUM:
            return tag, page_no, fields[0], b"", -1
        if tag == TYPE_PAGE_FULL:
            return tag, page_no, fields[0], fields[1], -1
        if tag == TYPE_PAGE_PLAIN:
            return tag, page_no, b"", fields[0], -1
        return tag, page_no, b"", b"", fields[0]

    async def read_frame(self, recv) -> Frame:
        """Read one frame via ``recv`` (an ``async (n) -> bytes`` reader):
        its row's body in one ``recv``, then the tail the body sizes."""
        tag = (await recv(1))[0]
        row = FRAMES.get(tag)
        if row is None:
            raise StreamDesyncError(f"unknown frame type 0x{tag:02x}")
        body = self._bodies[tag]
        raw = await recv(body.size)
        values = body.unpack(raw)
        if "?" in row.layout and body.pack(*values) != raw:
            # A flag byte other than 0 or 1 (struct reads it as True) is
            # some other frame's bytes, read from a misaligned stream.
            raise StreamDesyncError(f"{row.name.upper()} flags in {raw.hex()} are not booleans")
        wire_bytes = 1 + body.size
        if row.tail is None:
            return Frame(tag, wire_bytes=wire_bytes, **dict(zip(row.fields, values)))
        (size,) = values
        if row.tail == "json":
            if size > _MAX_JSON_BODY:
                raise FrameError(f"JSON body of {size} bytes exceeds limit")
            raw = await recv(size)
            try:
                decoded = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FrameError(f"malformed JSON body: {exc}") from exc
            return Frame(tag, body=decoded, wire_bytes=wire_bytes + size)
        if size > _MAX_ANNOUNCE_COUNT:  # the "digests" tail
            raise FrameError(f"announce of {size} checksums exceeds limit")
        blob = await recv(size * self.digest_size)
        return Frame(tag, count=size, digests=tuple(_split_digests(blob, self.digest_size)),
                     wire_bytes=wire_bytes + len(blob))


async def expect_frame(codec: FrameCodec, recv, expected: int) -> Frame:
    """Read one frame and require its type to be ``expected``.

    An ERROR frame from the peer is surfaced as :class:`FrameError`
    carrying the peer's structured message, so callers translate it into
    a non-retryable failure instead of a mysterious desync.
    """
    frame = await codec.read_frame(recv)
    if frame.type == expected:
        return frame
    if frame.type == TYPE_ERROR:
        body = frame.body or {}
        raise PeerError(
            str(body.get("code", "unknown")),
            str(body.get("message", "no detail")),
        )
    raise FrameError(f"expected {FRAME_NAMES[expected]} frame, got {frame.name}")


_ANY_WIRE = FrameCodec()  # READY and ROUND have no width a wire sets
