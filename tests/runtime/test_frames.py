"""Unit tests for the runtime frame codec."""

import asyncio
import struct

import pytest

from repro.core.checksum import get_algorithm
from repro.core.protocol import ANNOUNCE_FRAME_OVERHEAD, WireFormat
from repro.runtime.frames import (
    FRAME_TYPES,
    JSON_FRAME_TYPES,
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
    TYPE_ROUND,
    TYPE_TELEMETRY,
    StreamDesyncError,
    declare_frames,
    expect_frame,
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


ONE_OF_EACH = {
    "hello": lambda codec: codec.encode_hello({"session": "s"}),
    "ready": lambda codec: codec.encode_ready(1, 2, True, False),
    "announce": lambda codec: codec.encode_announce([DIGEST, DIGEST]),
    "result": lambda codec: codec.encode_result({"ok": True}),
    "error": lambda codec: codec.encode_error({"code": "desync"}),
    "full": lambda codec: codec.encode_page_full(1, DIGEST, PAGE),
    "checksum": lambda codec: codec.encode_page_checksum(1, DIGEST),
    "ref": lambda codec: codec.encode_page_ref(1, 0),
    "plain": lambda codec: codec.encode_page_plain(1, PAGE),
    "round": lambda codec: codec.encode_round(1, 64),
    "complete": lambda codec: codec.encode_complete(1, DIGEST),
    "heartbeat": lambda codec: codec.encode_heartbeat({"seq": 1}),
    "inventory": lambda codec: codec.encode_inventory({"host": "a"}),
    "telemetry": lambda codec: codec.encode_telemetry({"seq": 1}),
}
"""One encoded frame of every kind, keyed by frame name."""


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
        with pytest.raises(ValueError, match="declared twice"):
            declare_frames((0x01, "hello", "json"), (0x01, "ready", "fixed"))
        with pytest.raises(ValueError, match="declared twice"):
            declare_frames((0x01, "hello", "json"), (0x02, "hello", "json"))


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

    def test_expect_frame_wrong_type(self):
        codec = FrameCodec(WIRE)
        encoded = codec.encode_round(1, 1)
        with pytest.raises(FrameError, match="expected ready"):
            asyncio.run(expect_frame(codec, reader_for(encoded), TYPE_READY))

    def test_expect_frame_surfaces_peer_error(self):
        codec = FrameCodec(WIRE)
        encoded = codec.encode_error({"code": "bad-ref", "message": "nope"})
        with pytest.raises(FrameError, match=r"peer error \[bad-ref\]: nope"):
            asyncio.run(expect_frame(codec, reader_for(encoded), TYPE_READY))

    def test_expect_frame_can_want_error(self):
        codec = FrameCodec(WIRE)
        encoded = codec.encode_error({"code": "x", "message": "y"})
        frame = asyncio.run(expect_frame(codec, reader_for(encoded), TYPE_ERROR))
        assert frame.body == {"code": "x", "message": "y"}

    def test_header_too_small_rejected(self):
        with pytest.raises(ValueError, match="header_bytes"):
            FrameCodec(WireFormat(header_bytes=1))
        # Only the widths HELLO can negotiate: a fixed header and ref.
        with pytest.raises(ValueError, match="ref_bytes"):
            FrameCodec(WireFormat(ref_bytes=4))

    def test_unknown_tag_0x7f(self):
        codec = FrameCodec(WIRE)
        with pytest.raises(FrameError, match="unknown frame type 0x7f"):
            roundtrip(codec, b"\x7f")

    @pytest.mark.parametrize("flags", [(2, 0), (0, 0x0F), (0x32, 1)])
    def test_ready_flags_that_are_not_booleans_are_a_desync(self, flags):
        # What a READY cut short reads when the next frame's bytes land
        # in its flag fields.
        codec = FrameCodec(WIRE)
        blob = bytes((TYPE_READY,)) + struct.pack(">IQBB", 1, 0, *flags)
        with pytest.raises(StreamDesyncError, match="not booleans"):
            roundtrip(codec, blob)

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
