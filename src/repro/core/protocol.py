"""Wire format and traffic accounting for the migration protocol.

Section 3.2/3.3: every first-round message carries a page number plus
either the page's checksum (content already at the destination) or the
full page *and* its checksum (sending both saves the receiver from
re-computing it).  Before the migration, the destination announces the
checksums of all locally available pages in bulk — e.g. 16 MiB of MD5
hashes for a 4 GiB VM — unless the source already learned them while
receiving the previous incoming migration (the ping-pong shortcut).

The paper also sketches a rejected alternative: querying the destination
per page, which the authors expect to lose to round-trip latency.  Both
schemes are modelled so the ablation benchmark can quantify the gap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.checksum import DEFAULT_CHECKSUM, PAGE_SIZE, ChecksumAlgorithm
from repro.core.transfer import KIND_NAMES, Method, TransferSet


class FrameSpec(NamedTuple):
    """One frame of the wire protocol: ``tag | body | tail``.

    ``layout`` is the body after the 1-byte tag, one big-endian
    :mod:`struct` item per name in ``fields`` (the decoded frame's
    attribute it fills); its only parameters are ``{digest}`` and
    ``{page}``, the digest width and the page size.  ``tail``, sized by
    the first field, is None, ``"digests"`` (``count`` × digest) or
    ``"json"`` (``length`` bytes).  A frame whose first field is
    ``page_no`` is a data frame, named by its message kind.
    """

    tag: int
    name: str
    layout: str
    fields: Tuple[str, ...]
    tail: Optional[str] = None


def declare_frames(*rows: FrameSpec) -> Dict[int, FrameSpec]:
    """``{tag: row}`` from ``rows``.  A tag or a name declared twice is
    an error, so two frames can never share a byte on the wire or a key
    in the by-kind accounting; so is a layout that does not pair up
    with its fields."""
    table: Dict[int, FrameSpec] = {}
    for row in rows:
        if row.tag in table or any(row.name == known.name for known in table.values()):
            raise ValueError(f"frame 0x{row.tag:02x} {row.name!r} is declared twice")
        if len(row.layout.split()) != len(row.fields):
            raise ValueError(f"frame {row.name!r}: layout and fields differ in length")
        table[row.tag] = row
    return table


_JSON = ("I", ("length",), "json")

FRAMES = declare_frames(
    FrameSpec(TYPE_HELLO := 0x01, "hello", *_JSON),
    FrameSpec(TYPE_READY := 0x02, "ready", "I I ? ? I",
              ("round_no", "applied", "announce_follows", "completed", "check")),
    FrameSpec(TYPE_ANNOUNCE := 0x03, "announce", "I", ("count",), "digests"),
    FrameSpec(TYPE_RESULT := 0x04, "result", *_JSON),
    FrameSpec(TYPE_ERROR := 0x05, "error", *_JSON),
    FrameSpec(TYPE_PAGE_FULL := 0x10, "full", "Q {digest}s {page}s",
              ("page_no", "digest", "payload")),
    FrameSpec(TYPE_PAGE_CHECKSUM := 0x11, "checksum", "Q {digest}s",
              ("page_no", "digest")),
    FrameSpec(TYPE_PAGE_REF := 0x12, "ref", "Q Q", ("page_no", "ref")),
    FrameSpec(TYPE_PAGE_PLAIN := 0x13, "plain", "Q {page}s", ("page_no", "payload")),
    FrameSpec(TYPE_ROUND := 0x20, "round", "I Q", ("round_no", "count")),
    FrameSpec(TYPE_COMPLETE := 0x21, "complete", "I {digest}s", ("count", "digest")),
    FrameSpec(TYPE_HEARTBEAT := 0x30, "heartbeat", *_JSON),
    FrameSpec(TYPE_INVENTORY := 0x31, "inventory", *_JSON),
    FrameSpec(TYPE_TELEMETRY := 0x32, "telemetry", *_JSON),
)
"""Every frame the runtime moves and the model counts, declared once
(``docs/runtime.md``, "Wire framing", shows the table): each row binds
its ``TYPE_*`` tag, and every size, encoder and decoder derives from it."""

FRAME_NAMES = {tag: row.name for tag, row in FRAMES.items()}
"""Type tag → frame name."""

FRAME_TYPES = {name: tag for tag, name in FRAME_NAMES.items()}
"""Frame name → type tag, the inverse of :data:`FRAME_NAMES`."""

PAGE_FRAME_TYPES = frozenset(tag for tag, row in FRAMES.items() if row.fields[0] == "page_no")

JSON_FRAME_TYPES = frozenset(tag for tag, row in FRAMES.items() if row.tail == "json")
"""Tags whose payload is ``u32 len | JSON``."""


DESYNC = "desync"
"""The violation code of a stream that lost frame alignment: the source
reconnects under a fresh session.  Any other code fails fast."""


class SessionState(NamedTuple):
    """One state of a ``role``: ``"sink"`` (the daemon), ``"source"`` or
    ``"probe"`` (the registry's client).  ``moves`` maps each frame tag
    the role may read here to its next state (one it reads nothing in,
    like ``"done"``, is not declared); ``violation`` is the code of any
    other frame, or of bytes that do not parse, read here."""

    role: str
    name: str
    violation: str
    moves: Dict[int, str]


def declare_session(*states: SessionState) -> Dict[Tuple[str, str], SessionState]:
    """``{(role, name): state}`` from ``states``, each given the move
    every state has: a peer ERROR, to ``"failed"``.  A state declared
    twice is an error."""
    table: Dict[Tuple[str, str], SessionState] = {}
    for state in states:
        if (state.role, state.name) in table:
            raise ValueError(f"{state.role} state {state.name!r} is declared twice")
        table[state.role, state.name] = state._replace(
            moves={**state.moves, TYPE_ERROR: "failed"}
        )
    return table


_PROBES = {TYPE_HEARTBEAT: "heartbeat", TYPE_TELEMETRY: "telemetry"}

SESSION = declare_session(
    SessionState("sink", "open", "bad-hello", {TYPE_HELLO: "session", **_PROBES}),
    SessionState("sink", "heartbeat", "bad-hello", _PROBES),
    SessionState("sink", "telemetry", "bad-hello", _PROBES),
    SessionState("sink", "session", "bad-frame", {TYPE_ROUND: "round", TYPE_COMPLETE: "done"}),
    SessionState("sink", "round", "bad-frame", dict.fromkeys(sorted(PAGE_FRAME_TYPES), "round")),
    SessionState("source", "hello", "protocol", {TYPE_READY: "ready"}),
    SessionState("source", "ready", DESYNC, {TYPE_ANNOUNCE: "rounds", TYPE_RESULT: "done"}),
    SessionState("source", "complete", DESYNC, {TYPE_RESULT: "done"}),
    SessionState("probe", "heartbeat", "protocol", {TYPE_INVENTORY: "done"}),
    SessionState("probe", "telemetry", "protocol", {TYPE_TELEMETRY: "done"}),
)
"""The order of frames on a connection, declared once (``docs/runtime.md``,
"Protocol state machine", shows the table).  A source that sent HELLO
(COMPLETE) is in ``"hello"`` (``"complete"``), a probe that sent its
request in the state named after it; the sink's ``"heartbeat"`` and
``"telemetry"`` owe that probe its answer.  The sink steps ``"round"``
only for a frame that is not a page frame (those are decoded in bulk);
the round's count takes it back to ``"session"``."""


@dataclass(frozen=True)
class WireFormat:
    """Message sizes of the migration protocol, read off :data:`FRAMES`.

    The two widths HELLO negotiates are the only settings.

    Attributes:
        page_size: Guest page size (4 KiB).
        checksum_bytes: Digest size of the configured checksum algorithm.
    """

    page_size: int = PAGE_SIZE
    checksum_bytes: int = DEFAULT_CHECKSUM.digest_size

    @classmethod
    def for_algorithm(cls, algorithm: ChecksumAlgorithm) -> "WireFormat":
        return cls(checksum_bytes=algorithm.digest_size)

    def layout(self, tag: int) -> str:
        """Frame ``tag``'s body layout at this wire's widths (no byte order)."""
        return FRAMES[tag].layout.format(digest=self.checksum_bytes, page=self.page_size)

    @property
    def bodies(self) -> Dict[int, struct.Struct]:
        """Every frame's body, what follows its tag, as one big-endian struct."""
        return frame_structs(self)

    @property
    def header_bytes(self) -> int:
        """Per-message header of a data frame: type tag + page number."""
        return self.plain_page_message - self.page_size

    @property
    def full_page_message(self) -> int:
        """Bytes for 'page number + checksum + page bytes' (§3.2)."""
        return self.message_bytes("full")

    @property
    def checksum_message(self) -> int:
        """Bytes for 'page number + checksum' (content reusable)."""
        return self.message_bytes("checksum")

    @property
    def ref_message(self) -> int:
        """Bytes for 'page number + dedup cache reference'."""
        return self.message_bytes("ref")

    @property
    def plain_page_message(self) -> int:
        """Bytes for a page without checksum (baseline QEMU migration)."""
        return self.message_bytes("plain")

    def message_bytes(self, kind: str) -> int:
        """Wire size of one data message by kind.

        The live runtime's frame codec and the analytic traffic model
        both resolve message sizes through this single table, so a
        framing change cannot silently diverge the two paths.  Kinds:
        ``"full"``, ``"checksum"``, ``"ref"``, ``"plain"``.
        """
        tag = FRAME_TYPES.get(kind)
        if tag not in PAGE_FRAME_TYPES:
            known = ", ".join(sorted(FRAME_NAMES[tag] for tag in PAGE_FRAME_TYPES))
            raise ValueError(f"unknown message kind {kind!r}; known: {known}")
        return 1 + self.bodies[tag].size

    def announce_frame_bytes(self, unique_pages: int) -> int:
        """On-the-wire size of a framed bulk announce of ``unique_pages``
        digests: the one announce formula of the model and the runtime."""
        if unique_pages < 0:
            raise ValueError(f"unique_pages must be >= 0, got {unique_pages}")
        return ANNOUNCE_FRAME_OVERHEAD + unique_pages * self.checksum_bytes


@lru_cache(maxsize=16)
def frame_structs(wire: WireFormat, head: str = "") -> Dict[int, struct.Struct]:
    """Every frame's body at ``wire``'s widths as one big-endian struct,
    after the ``head`` items (``"B"``: the tag byte too, a whole frame).
    Cached per distinct wire: every message size is read through it."""
    return {tag: struct.Struct(f">{head} {wire.layout(tag)}") for tag in FRAMES}


ANNOUNCE_FRAME_OVERHEAD = 1 + WireFormat().bodies[TYPE_ANNOUNCE].size
"""Framing overhead of one bulk-announce message on a real byte stream,
its :data:`FRAMES` row without the digests (type tag + checksum count).
Every model charges it through :meth:`WireFormat.announce_frame_bytes`,
the size the live runtime's frame has, so cross-validation requires the
two announce counts to be equal."""


@dataclass(frozen=True)
class TrafficBreakdown:
    """Bytes moved by one first copy round, by direction and purpose.

    Attributes:
        payload_bytes: Source → destination migration stream.
        announce_bytes: Destination → source bulk checksum announce
            (zero when the ping-pong shortcut applies or the method does
            not use content hashes).
        messages: Number of source → destination messages.
    """

    payload_bytes: int
    announce_bytes: int
    messages: int

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.announce_bytes


def announce_pages(method: Method, checkpoint_unique: Optional[int], known: bool) -> Optional[int]:
    """Digests the destination announces before the first round, or None
    when it announces nothing — the one announce rule of every model.

    A method without hashes gets no announce, nor does a ping-pong
    (``known``, §3.3) to a checkpoint the source remembers.  A first
    visit (``checkpoint_unique`` None) always gets the empty announce:
    the source cannot remember a checkpoint that does not exist.
    """
    if not method.uses_hashes:
        return None
    if checkpoint_unique is None:
        return 0
    return None if known else checkpoint_unique


def first_round_traffic(
    transfer_set: TransferSet,
    wire: WireFormat = WireFormat(),
    announce_unique_pages: Optional[int] = None,
) -> TrafficBreakdown:
    """Traffic for one first copy round described by ``transfer_set``.

    Args:
        transfer_set: Per-slot handling computed by
            :func:`repro.core.transfer.compute_transfer_set`.
        wire: Message sizes.
        announce_unique_pages: Number of distinct checksums the
            destination announces up front, charged as one framed
            announce (0 is a first visit's empty announce); None when
            there is none (ping-pong, §3.2, or a method without hashes).
    """
    counts = transfer_set.message_counts
    payload = sum(
        count * wire.message_bytes(KIND_NAMES[kind]) for kind, count in counts.items()
    )
    return TrafficBreakdown(
        payload_bytes=payload,
        announce_bytes=(
            0 if announce_unique_pages is None else wire.announce_frame_bytes(announce_unique_pages)
        ),
        messages=sum(counts.values()),
    )


def per_page_query_traffic(
    num_pages: int, wire: WireFormat = WireFormat()
) -> TrafficBreakdown:
    """Extra traffic of the rejected per-page query scheme (§3.2).

    Instead of one bulk announce, the source asks the destination about
    every page: a checksum-sized query per page plus a one-byte verdict
    back.  The byte volume is similar to the bulk announce; the killer
    (modelled by the link layer, not here) is that each query is a
    synchronous round trip unless deeply pipelined.
    """
    if num_pages < 0:
        raise ValueError(f"num_pages must be >= 0, got {num_pages}")
    query_bytes = num_pages * (wire.header_bytes + wire.checksum_bytes)
    verdict_bytes = num_pages * 1
    return TrafficBreakdown(
        payload_bytes=query_bytes, announce_bytes=verdict_bytes, messages=num_pages
    )
