"""Unit tests for the runtime frame codec."""

import asyncio
import hashlib
import re
import struct
from pathlib import Path

import pytest

from repro.core.checksum import get_algorithm
from repro.core.protocol import (
    ANNOUNCE_FRAME_OVERHEAD,
    DESYNC,
    FRAME_NAMES,
    FRAME_TYPES,
    FRAMES,
    JSON_FRAME_TYPES,
    SESSION,
    FrameSpec,
    SessionState,
    WireFormat,
    declare_frames,
    declare_session,
)
from repro.runtime.frames import (
    PAGE_FRAME_TYPES,
    Frame,
    FrameCodec,
    FrameError,
    TYPE_ANNOUNCE,
    TYPE_COMPLETE,
    TYPE_ERROR,
    TYPE_HELLO,
    TYPE_PAGE_CHECKSUM,
    TYPE_PAGE_FULL,
    TYPE_PAGE_PLAIN,
    TYPE_PAGE_REF,
    TYPE_READY,
    TYPE_RESULT,
    TYPE_ROUND,
    TYPE_TELEMETRY,
    PeerError,
    StreamDesyncError,
    step,
)

WIRE = WireFormat()
PAGE = bytes(range(256)) * (WIRE.page_size // 256)
DIGEST = bytes(16)


def reader_for(blob: bytes):
    """An ``async (n) -> bytes`` reader over an in-memory byte string."""
    view = memoryview(blob)
    offset = 0

    async def recv(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(view):
            raise asyncio.IncompleteReadError(bytes(view[offset:]), n)
        chunk = bytes(view[offset : offset + n])
        offset += n
        return chunk

    return recv


def roundtrip(codec: FrameCodec, encoded: bytes) -> Frame:
    return asyncio.run(codec.read_frame(reader_for(encoded)))


class TestPageFrameSizes:
    """Data frames must occupy exactly the analytic message sizes."""

    def test_full(self):
        codec = FrameCodec(WIRE)
        encoded = codec.encode_page_full(7, DIGEST, PAGE)
        assert len(encoded) == WIRE.full_page_message == 9 + 16 + 4096

    def test_checksum(self):
        codec = FrameCodec(WIRE)
        assert len(codec.encode_page_checksum(7, DIGEST)) == WIRE.checksum_message

    def test_ref(self):
        codec = FrameCodec(WIRE)
        assert len(codec.encode_page_ref(7, 3)) == WIRE.ref_message == 9 + 8

    def test_plain(self):
        codec = FrameCodec(WIRE)
        assert len(codec.encode_page_plain(7, PAGE)) == WIRE.plain_page_message

    def test_announce(self):
        codec = FrameCodec(WIRE)
        encoded = codec.encode_announce([DIGEST] * 10)
        assert len(encoded) == WIRE.announce_frame_bytes(10)
        assert len(encoded) == ANNOUNCE_FRAME_OVERHEAD + 10 * 16

    def test_checksum_frame_is_a_full_frame_without_its_page(self):
        codec = FrameCodec(WIRE)
        full = codec.encode_page_full(7, DIGEST, PAGE)
        checksum_only = codec.encode_page_checksum(7, DIGEST)
        assert len(checksum_only) == 9 + 16
        assert len(full) - len(checksum_only) == WIRE.page_size

    def test_sizes_follow_the_wire_format(self):
        wire = WireFormat(checksum_bytes=8)
        codec = FrameCodec(wire)
        digest8 = bytes(8)
        assert len(codec.encode_page_full(0, digest8, PAGE)) == wire.full_page_message
        assert len(codec.encode_page_checksum(0, digest8)) == wire.checksum_message


class TestRoundtrip:
    def test_page_full(self):
        codec = FrameCodec(WIRE)
        digest = get_algorithm("md5").digest(PAGE)
        frame = roundtrip(codec, codec.encode_page_full(42, digest, PAGE))
        assert frame.type == TYPE_PAGE_FULL
        assert frame.page_no == 42
        assert frame.digest == digest
        assert frame.payload == PAGE
        assert frame.wire_bytes == WIRE.full_page_message

    def test_page_checksum(self):
        codec = FrameCodec(WIRE)
        frame = roundtrip(codec, codec.encode_page_checksum(3, DIGEST))
        assert (frame.type, frame.page_no, frame.digest) == (
            TYPE_PAGE_CHECKSUM, 3, DIGEST,
        )

    def test_page_ref(self):
        codec = FrameCodec(WIRE)
        frame = roundtrip(codec, codec.encode_page_ref(9, 4))
        assert (frame.type, frame.page_no, frame.ref) == (TYPE_PAGE_REF, 9, 4)

    def test_page_plain(self):
        codec = FrameCodec(WIRE)
        frame = roundtrip(codec, codec.encode_page_plain(5, PAGE))
        assert (frame.type, frame.page_no, frame.payload) == (
            TYPE_PAGE_PLAIN, 5, PAGE,
        )

    def test_hello_json(self):
        codec = FrameCodec(WIRE)
        body = {"session": "s1", "vm_id": "vm", "num_pages": 128}
        frame = roundtrip(codec, codec.encode_hello(body))
        assert frame.type == TYPE_HELLO
        assert frame.body == body

    def test_ready(self):
        codec = FrameCodec(WIRE)
        frame = roundtrip(codec, codec.encode_ready(3, 1000, True, False))
        assert frame.type == TYPE_READY
        assert frame.round_no == 3
        assert frame.applied == 1000
        assert frame.announce_follows is True
        assert frame.completed is False

    def test_announce(self):
        codec = FrameCodec(WIRE)
        digests = [bytes([i]) * 16 for i in range(5)]
        frame = roundtrip(codec, codec.encode_announce(digests))
        assert frame.type == TYPE_ANNOUNCE
        assert list(frame.digests) == digests

    def test_round(self):
        codec = FrameCodec(WIRE)
        frame = roundtrip(codec, codec.encode_round(2, 777))
        assert (frame.type, frame.round_no, frame.count) == (TYPE_ROUND, 2, 777)

    def test_complete(self):
        codec = FrameCodec(WIRE)
        frame = roundtrip(codec, codec.encode_complete(4, DIGEST))
        assert (frame.type, frame.count, frame.digest) == (TYPE_COMPLETE, 4, DIGEST)

    def test_telemetry(self):
        codec = FrameCodec(WIRE)
        body = {
            "host": "host-a",
            "seq": 7,
            "instruments": {"c": {"type": "counter", "value": 3.0}},
        }
        frame = roundtrip(codec, codec.encode_telemetry(body))
        assert frame.type == TYPE_TELEMETRY
        assert frame.body == body


def digest_for(codec: FrameCodec) -> bytes:
    return bytes(range(codec.digest_size))


def page_for(codec: FrameCodec) -> bytes:
    return bytes((i * 7) % 256 for i in range(codec.page_size))


ONE_OF_EACH = {
    "hello": lambda codec: codec.encode_hello({"session": "s", "n": 1}),
    "ready": lambda codec: codec.encode_ready(3, 1000, True, False),
    "announce": lambda codec: codec.encode_announce(
        [digest_for(codec), digest_for(codec)[::-1]]
    ),
    "result": lambda codec: codec.encode_result({"ok": True}),
    "error": lambda codec: codec.encode_error({"code": "desync", "message": "m"}),
    "full": lambda codec: codec.encode_page_full(42, digest_for(codec), page_for(codec)),
    "checksum": lambda codec: codec.encode_page_checksum(42, digest_for(codec)),
    "ref": lambda codec: codec.encode_page_ref(42, 7),
    "plain": lambda codec: codec.encode_page_plain(42, page_for(codec)),
    "round": lambda codec: codec.encode_round(2, 777),
    "complete": lambda codec: codec.encode_complete(4, digest_for(codec)),
    "heartbeat": lambda codec: codec.encode_heartbeat({}),
    "inventory": lambda codec: codec.encode_inventory(
        {"active_sessions": 0, "checkpoints": {}}
    ),
    "telemetry": lambda codec: codec.encode_telemetry({"seq": 1}),
}
"""One encoded frame of every kind, keyed by frame name, at any wire."""

WIRES = {"default": WIRE, "p64d8": WireFormat(page_size=64, checksum_bytes=8)}

SHA256 = {
    "default": {
        "announce": "29e5e3d3d820718b377ca85af4747de727728cd0d540d773155c7d788feb8976",
        "checksum": "81dbce61079da673813de26df72d200ec34ee025ae36c5e65cf4d3aec8fb8d60",
        "complete": "774121ba5f0363fc3d9161ebd60bff97be53e49f3a679a6489311e6fcf69e9a3",
        "error": "95ff55a9f4f9ba00185dcd769b00e158ee8a093806c5f568ffb004d0c4784389",
        "full": "c0de446208905ac3502be07ce35a893bfc9d81dc89969240d94cdb54772dde81",
        "heartbeat": "ce966c39134d00d5ba8fa239de4f1d174c7f5c14ca95140708255c525ec518b1",
        "hello": "02c775b7f524257cef661970cf5ec65e326e1c9a721ca2e15f33e5fa87ca3e1b",
        "inventory": "e284244550d11a2aeb3816e1565d35d09c370a8032b562a695bb38d9007c1802",
        "plain": "0fa0794cd1bdeb1b09d60c0e05ee6f34403b611c3fed0f97f8516756cc9f2cb3",
        "ready": "0d6f564db5753e5af1b7641cc4bcd58e21322d2003edaa4dd80382b3a13b353c",
        "ref": "829e6375617df086bf2264e81a0c7fbc7308f73cd3ad477e7ec6befea95b2b24",
        "result": "7951c4d2c7782fd4dbd61990eb41b1b7f65947969052e2d55b184b37ff32b146",
        "round": "1f0f0cdd4497238b9db413c01b6a5f9b582348b2706acd67f1eadbfe3c9e3599",
        "telemetry": "72bc4e861d4d590ecfd2a2c0bc0637652fbd52a17f8b84980d27fa0c23c1f2da",
    },
    "p64d8": {
        "announce": "c4c971e13b948a0d694ce39fac41e2c1a3da1e25c8abdfa2f855d347db765ac2",
        "checksum": "31472e5cc99c48082744b160feb4cb8334ed9879080349d13d9080c21be3fd99",
        "complete": "e5cd9b28549d3dedf21ab82f25c2c385550e233af33cbc178cc804bd8910fa85",
        "error": "95ff55a9f4f9ba00185dcd769b00e158ee8a093806c5f568ffb004d0c4784389",
        "full": "cec1fe7178bcc719f64762f77c34e7d71517d662c5853d794aeb028f01df10aa",
        "heartbeat": "ce966c39134d00d5ba8fa239de4f1d174c7f5c14ca95140708255c525ec518b1",
        "hello": "02c775b7f524257cef661970cf5ec65e326e1c9a721ca2e15f33e5fa87ca3e1b",
        "inventory": "e284244550d11a2aeb3816e1565d35d09c370a8032b562a695bb38d9007c1802",
        "plain": "772276879be054e729c27c63aa359d925fe93a7f98d4b959d3159b2de0b61909",
        "ready": "0d6f564db5753e5af1b7641cc4bcd58e21322d2003edaa4dd80382b3a13b353c",
        "ref": "829e6375617df086bf2264e81a0c7fbc7308f73cd3ad477e7ec6befea95b2b24",
        "result": "7951c4d2c7782fd4dbd61990eb41b1b7f65947969052e2d55b184b37ff32b146",
        "round": "1f0f0cdd4497238b9db413c01b6a5f9b582348b2706acd67f1eadbfe3c9e3599",
        "telemetry": "72bc4e861d4d590ecfd2a2c0bc0637652fbd52a17f8b84980d27fa0c23c1f2da",
    },
}
"""sha256 of each :data:`ONE_OF_EACH` frame, recorded from the codec
before the frame table moved into ``core/protocol.py``: the wire may
not change by one byte.  READY's two were recorded again when its
``u64 applied`` became ``u32 applied, u32 check``."""

EVERY_FRAME = [
    pytest.param(wire, row.name, id=f"{wire}-{row.name}")
    for wire in WIRES
    for row in FRAMES.values()
]


class TestWireIsPinned:
    @pytest.mark.parametrize("wire, name", EVERY_FRAME)
    def test_every_frame_keeps_its_bytes(self, wire, name):
        encoded = ONE_OF_EACH[name](FrameCodec(WIRES[wire]))
        assert hashlib.sha256(encoded).hexdigest() == SHA256[wire][name]

    @pytest.mark.parametrize("wire, name", EVERY_FRAME)
    def test_every_cut_of_a_frame_is_an_incomplete_read(self, wire, name):
        codec = FrameCodec(WIRES[wire])
        encoded = ONE_OF_EACH[name](codec)
        frame = roundtrip(codec, encoded)
        assert (frame.name, frame.wire_bytes) == (name, len(encoded))
        for cut in range(len(encoded)):
            # The reader ends where the prefix does, as a stream at EOF.
            with pytest.raises(asyncio.IncompleteReadError):
                roundtrip(codec, encoded[:cut])


RUNTIME_DOC = Path(__file__).parents[2] / "docs" / "runtime.md"


def docs_frame_table():
    """``(name, tag, size)`` of each row of docs/runtime.md's frame table."""
    return [
        (name, int(tag, 16), size.strip())
        for name, tag, size in re.findall(
            r"^\| (\w+) +\| (0x[0-9a-f]{2}) \|[^|]*\|([^|]*)\|$", RUNTIME_DOC.read_text(), re.M
        )
    ]


def documented_name(tag: int) -> str:
    """A frame's name as docs/runtime.md writes it: PAGE_FULL, HELLO, …"""
    return ("PAGE_" if tag in PAGE_FRAME_TYPES else "") + FRAME_NAMES[tag].upper()


def documented_size(row: FrameSpec) -> str:
    """A row's size as docs/runtime.md writes it: 4 KiB pages, 16-byte digests."""
    wire = WireFormat(page_size=4096, checksum_bytes=16)
    fixed = 1 + wire.bodies[row.tag].size
    if row.tail == "json":
        return "varies"
    if row.tail == "digests":
        return f"{fixed} + {wire.checksum_bytes}·count"
    return str(fixed)


def test_docs_frame_table_is_the_code_table():
    documented = docs_frame_table()
    assert documented == [
        (documented_name(row.tag), row.tag, documented_size(row)) for row in FRAMES.values()
    ]


def test_docs_session_table_is_the_code_table():
    documented = re.findall(
        r"^\| (sink|source|probe) +\| (\w+) +\| ([^|]+?) +\| ([\w-]+) +\|$",
        RUNTIME_DOC.read_text(), re.M,
    )
    assert documented == [
        (role, name, ", ".join(
            f"{documented_name(tag)} → {after}" for tag, after in state.moves.items()
        ), state.violation)
        for (role, name), state in SESSION.items()
    ]


class TestSessionTable:
    """What the one declaration of the frame order promises."""

    def test_a_state_declared_twice_fails(self):
        hello = SessionState("source", "hello", "protocol", {TYPE_READY: "ready"})
        with pytest.raises(ValueError, match="declared twice"):
            declare_session(hello, hello._replace(violation=DESYNC))

    def test_every_state_moves_within_its_role(self):
        for (role, _), state in SESSION.items():
            for after in state.moves.values():
                assert (role, after) in SESSION or after in ("rounds", "done", "failed")

    def test_every_frame_is_read_in_some_state(self):
        assert {tag for state in SESSION.values() for tag in state.moves} == set(FRAMES)

    def test_only_what_follows_a_checked_ready_is_a_desync_state(self):
        assert [key for key, state in SESSION.items() if state.violation == DESYNC] == [
            ("source", "ready"), ("source", "complete"),
        ]


class TestFrameTable:
    """What the one declaration table promises, frame by frame."""

    def test_the_cases_are_exactly_the_declared_frames(self):
        assert set(ONE_OF_EACH) == set(FRAME_TYPES)

    @pytest.mark.parametrize("name", sorted(ONE_OF_EACH))
    def test_every_declared_tag_round_trips(self, name):
        codec = FrameCodec(WIRE)
        encoded = ONE_OF_EACH[name](codec)
        frame = roundtrip(codec, encoded)
        assert (frame.type, frame.name) == (FRAME_TYPES[name], name)
        assert encoded[0] == frame.type
        assert frame.wire_bytes == len(encoded)

    def test_groups_derive_from_the_table(self):
        assert PAGE_FRAME_TYPES == {
            TYPE_PAGE_FULL, TYPE_PAGE_CHECKSUM, TYPE_PAGE_REF, TYPE_PAGE_PLAIN,
        }
        assert {TYPE_HELLO, TYPE_ERROR, TYPE_TELEMETRY} <= JSON_FRAME_TYPES
        assert not JSON_FRAME_TYPES & PAGE_FRAME_TYPES
        assert isinstance(TYPE_PAGE_REF, int) and TYPE_PAGE_REF == 0x12

    def test_a_tag_or_a_name_declared_twice_fails(self):
        hello = FrameSpec(0x01, "hello", "I", ("length",), "json")
        with pytest.raises(ValueError, match="declared twice"):
            declare_frames(hello, FrameSpec(0x01, "ready", "I", ("round_no",)))
        with pytest.raises(ValueError, match="declared twice"):
            declare_frames(hello, hello._replace(tag=0x02))

    def test_a_layout_that_does_not_pair_up_with_its_fields_fails(self):
        with pytest.raises(ValueError, match="differ in length"):
            declare_frames(FrameSpec(0x20, "round", "I Q", ("round_no",)))


class TestErrors:
    def test_unknown_tag(self):
        # 0x33 sits right after TELEMETRY but is no frame's tag: it reads
        # as a lost frame boundary, the retryable fault, like any other.
        codec = FrameCodec(WIRE)
        for blob in (b"\xff", b"\x33"):
            with pytest.raises(StreamDesyncError, match="unknown frame type"):
                roundtrip(codec, blob)

    def test_malformed_json(self):
        codec = FrameCodec(WIRE)
        blob = bytes((TYPE_HELLO,)) + (3).to_bytes(4, "big") + b"{{{"
        with pytest.raises(FrameError, match="malformed JSON"):
            roundtrip(codec, blob)

    def test_oversized_json_rejected(self):
        codec = FrameCodec(WIRE)
        blob = bytes((TYPE_HELLO,)) + (1 << 30).to_bytes(4, "big")
        with pytest.raises(FrameError, match="exceeds limit"):
            roundtrip(codec, blob)

    def test_step_refuses_a_frame_the_state_has_no_move_for(self):
        codec = FrameCodec(WIRE)
        encoded = codec.encode_round(1, 1)
        with pytest.raises(FrameError, match="round frame in source state 'hello'") as info:
            asyncio.run(step(codec, reader_for(encoded), "source", "hello"))
        assert info.value.code == "protocol"

    def test_step_surfaces_peer_error(self):
        codec = FrameCodec(WIRE)
        encoded = codec.encode_error({"code": "bad-ref", "message": "nope"})
        with pytest.raises(PeerError, match=r"peer error \[bad-ref\]: nope") as info:
            asyncio.run(step(codec, reader_for(encoded), "source", "hello"))
        assert info.value.code == "bad-ref"

    @pytest.mark.parametrize("role, state", sorted(SESSION))
    def test_step_takes_a_peer_error_in_every_state(self, role, state):
        codec = FrameCodec(WIRE)
        encoded = codec.encode_error({"code": "x", "message": "y"})
        with pytest.raises(PeerError, match=r"\[x\]: y"):
            asyncio.run(step(codec, reader_for(encoded), role, state))

    def test_unknown_tag_0x7f(self):
        codec = FrameCodec(WIRE)
        with pytest.raises(FrameError, match="unknown frame type 0x7f"):
            roundtrip(codec, b"\x7f")

    @pytest.mark.parametrize("flags", [(2, 0), (0, 0x0F), (0x32, 1)])
    def test_ready_flags_that_are_not_booleans_are_a_desync(self, flags):
        # What a READY cut short reads when the next frame's bytes land
        # in its flag fields.
        codec = FrameCodec(WIRE)
        blob = bytes((TYPE_READY,)) + struct.pack(">IIBBI", 1, 0, *flags, 0)
        with pytest.raises(StreamDesyncError, match="not booleans"):
            roundtrip(codec, blob)

    def test_a_ready_that_does_not_answer_its_hello_is_a_desync(self):
        # What a READY completed by the next frame's bytes reads as when
        # its flags still look like booleans.
        encoded = FrameCodec(WIRE, session="vm-1").encode_ready(1, 0, True, False)
        assert roundtrip(FrameCodec(WIRE, session="vm-1"), encoded).announce_follows
        with pytest.raises(StreamDesyncError, match="does not answer session 'vm-2'"):
            roundtrip(FrameCodec(WIRE, session="vm-2"), encoded)

    def test_a_codec_answers_the_hello_it_encoded_or_read(self):
        source, sink = FrameCodec(WIRE), FrameCodec(WIRE)
        roundtrip(sink, source.encode_hello({"session": "vm-7", "num_pages": 1}))
        assert source.session == sink.session == "vm-7"
        ready = roundtrip(source, sink.encode_ready(2, 5, False, True))
        assert (ready.round_no, ready.applied, ready.completed) == (2, 5, True)

    @pytest.mark.parametrize("state, code", [("hello", "protocol"), ("ready", DESYNC)])
    def test_a_malformed_frame_takes_the_code_of_its_state(self, state, code):
        # After a READY that passed its check, a body that does not parse
        # can only be a lost frame boundary.
        blob = bytes((TYPE_RESULT,)) + (13185551).to_bytes(4, "big")
        with pytest.raises(FrameError, match="exceeds limit") as info:
            asyncio.run(step(FrameCodec(WIRE), reader_for(blob), "source", state))
        assert info.value.code == code

    def test_an_unknown_tag_is_a_desync_in_every_state(self):
        for role, state in SESSION:
            with pytest.raises(StreamDesyncError) as info:
                asyncio.run(step(FrameCodec(WIRE), reader_for(b"\x7f"), role, state))
            assert info.value.code == DESYNC

    def test_oversized_telemetry_body_rejected(self):
        codec = FrameCodec(WIRE)
        blob = bytes((TYPE_TELEMETRY,)) + ((1 << 20) + 1).to_bytes(4, "big")
        with pytest.raises(FrameError, match="exceeds limit"):
            roundtrip(codec, blob)

    def test_truncated_telemetry_mid_length_prefix(self):
        # The peer died after the tag and half the u32 length: the
        # reader must surface the truncation, not hang or misparse.
        codec = FrameCodec(WIRE)
        blob = bytes((TYPE_TELEMETRY,)) + b"\x00\x00"
        with pytest.raises(asyncio.IncompleteReadError):
            roundtrip(codec, blob)

    def test_truncated_telemetry_mid_body(self):
        codec = FrameCodec(WIRE)
        complete = codec.encode_telemetry({"host": "a", "seq": 1})
        with pytest.raises(asyncio.IncompleteReadError):
            roundtrip(codec, complete[:-3])
