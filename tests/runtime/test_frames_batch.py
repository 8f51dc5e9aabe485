"""Property tests for the batch page-frame codec (hypothesis).

``FrameCodec.encode_pages`` and ``decode_pages`` move a round's page
frames a buffer at a time.  The single-frame encoders and
``read_frame`` stay the reference: for any mix of the four page kinds,
any slots and refs and any page and digest size the batch forms must
produce and accept exactly the same bytes.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocol import WireFormat
from repro.runtime.frames import (
    FrameCodec,
    FrameError,
    TYPE_PAGE_CHECKSUM,
    TYPE_PAGE_FULL,
    TYPE_PAGE_PLAIN,
    TYPE_PAGE_REF,
)

PAGE_TAGS = (TYPE_PAGE_FULL, TYPE_PAGE_CHECKSUM, TYPE_PAGE_REF, TYPE_PAGE_PLAIN)
ONE_BATCH = 1 << 40

# HELLO negotiates the page and digest sizes only; the header and the
# ref keep their fixed widths.
wire_formats = st.builds(
    WireFormat,
    page_size=st.sampled_from([32, 64, 200]),
    checksum_bytes=st.sampled_from([4, 16, 20, 32]),
)


@st.composite
def rows_for(draw, wire: WireFormat, min_size: int = 0):
    """Rows ``(tag, page_no, digest, payload, ref)`` as ``read_frame``
    would report them, every field at full width for ``wire``."""
    # Page numbers travel through int64 arrays, so 2**63 caps them.
    top = 2**63 - 1
    page_nos = st.one_of(
        st.integers(0, top), st.just(top), st.just(2**32)
    )
    rows = []
    for tag in draw(st.lists(st.sampled_from(PAGE_TAGS), min_size=min_size,
                             max_size=9)):
        digest = payload = b""
        ref = -1
        if tag in (TYPE_PAGE_FULL, TYPE_PAGE_CHECKSUM):
            digest = draw(st.binary(min_size=wire.checksum_bytes,
                                    max_size=wire.checksum_bytes))
        if tag in (TYPE_PAGE_FULL, TYPE_PAGE_PLAIN):
            payload = draw(st.binary(min_size=wire.page_size,
                                     max_size=wire.page_size))
        if tag == TYPE_PAGE_REF:
            ref = draw(st.one_of(st.integers(0, top), st.just(top)))
        rows.append((tag, draw(page_nos), digest, payload, ref))
    return rows


@st.composite
def codec_and_rows(draw, min_size: int = 0):
    wire = draw(wire_formats)
    return FrameCodec(wire), draw(rows_for(wire, min_size))


def encode_single(codec: FrameCodec, row) -> bytes:
    """One row through the single-frame public encoders."""
    tag, page_no, digest, payload, ref = row
    if tag == TYPE_PAGE_FULL:
        return codec.encode_page_full(page_no, digest, payload)
    if tag == TYPE_PAGE_CHECKSUM:
        return codec.encode_page_checksum(page_no, digest)
    if tag == TYPE_PAGE_REF:
        return codec.encode_page_ref(page_no, ref)
    return codec.encode_page_plain(page_no, payload)


def encode_batches(codec: FrameCodec, rows, batch_bytes=ONE_BATCH, queued=0):
    """The rows through ``encode_pages``: a list of ``(tags, blob)``."""
    return list(
        codec.encode_pages(
            [row[0] for row in rows],
            [row[1] for row in rows],
            digests=[row[2] for row in rows if row[2]],
            pages=iter([row[3] for row in rows if row[3]]),
            refs=[row[4] for row in rows if row[0] == TYPE_PAGE_REF],
            batch_bytes=batch_bytes,
            queued=queued,
        )
    )


def read_all(codec: FrameCodec, blob: bytes, count: int):
    """``count`` frames of ``blob`` through ``read_frame``, as tuples."""
    offset = 0

    async def recv(n: int) -> bytes:
        nonlocal offset
        chunk = blob[offset : offset + n]
        offset += n
        return chunk

    async def run():
        frames = [await codec.read_frame(recv) for _ in range(count)]
        return [(f.type, f.page_no, f.digest, f.payload, f.ref) for f in frames]

    return asyncio.run(run())


class TestEncodePages:
    @given(codec_and_rows())
    @settings(max_examples=120, deadline=None)
    def test_equals_the_single_frame_encoders_byte_for_byte(self, case):
        codec, rows = case
        batches = encode_batches(codec, rows)
        expected = b"".join(encode_single(codec, row) for row in rows)
        assert b"".join(blob for _, blob in batches) == expected
        assert len(batches) == (1 if rows else 0)

    @given(codec_and_rows(), st.integers(1, 700), st.integers(0, 40))
    @settings(max_examples=120, deadline=None)
    def test_batches_close_at_the_first_boundary_past_the_limit(
        self, case, batch_bytes, queued
    ):
        codec, rows = case
        # A writer that had reached its limit would already have flushed.
        queued = min(queued, batch_bytes - 1)
        singles = [encode_single(codec, row) for row in rows]
        batches = encode_batches(codec, rows, batch_bytes, queued)
        assert b"".join(blob for _, blob in batches) == b"".join(singles)
        assert [t for tags, _ in batches for t in tags] == [r[0] for r in rows]
        at = 0
        for index, (tags, blob) in enumerate(batches):
            assert blob == b"".join(singles[at : at + len(tags)])
            ahead = queued if index == 0 else 0
            if index < len(batches) - 1:
                assert ahead + len(blob) >= batch_bytes
            # ... and not one frame later than it had to.
            assert ahead + len(blob) - len(singles[at + len(tags) - 1]) < batch_bytes
            at += len(tags)

    def test_a_page_number_too_wide_for_the_header_overflows_in_both(self):
        codec = FrameCodec()
        with pytest.raises(OverflowError):
            codec.encode_page_ref(1 << 64, 0)
        with pytest.raises(OverflowError):
            encode_batches(codec, [(TYPE_PAGE_REF, 1 << 64, b"", b"", 0)])
        with pytest.raises(OverflowError):
            encode_batches(codec, [(TYPE_PAGE_REF, -1, b"", b"", 0)])

    def test_a_tag_that_is_not_a_page_frame_is_refused(self):
        with pytest.raises(FrameError):
            encode_batches(FrameCodec(), [(0x20, 0, b"", b"", -1)])

    def test_a_short_digest_fails_the_batch_size_assertion(self):
        codec = FrameCodec()
        with pytest.raises(AssertionError):
            encode_batches(codec, [(TYPE_PAGE_CHECKSUM, 0, b"short", b"", -1)])


class TestDecodePages:
    @given(codec_and_rows(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_every_cut_yields_the_whole_frames_before_it(self, case):
        codec, rows = case
        singles = [encode_single(codec, row) for row in rows]
        blob = b"".join(singles)
        assert read_all(codec, blob, len(rows)) == rows
        ends = [sum(map(len, singles[: i + 1])) for i in range(len(singles))]
        for cut in range(len(blob) + 1):
            whole = sum(1 for end in ends if end <= cut)
            frames, consumed = codec.decode_pages(blob[:cut], len(rows))
            assert frames == rows[:whole]
            assert consumed == (ends[whole - 1] if whole else 0)

    @given(codec_and_rows(min_size=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_stops_without_consuming_at_a_tag_that_is_not_a_page(self, case, data):
        codec, rows = case
        singles = [encode_single(codec, row) for row in rows]
        where = data.draw(st.integers(0, len(rows)))
        intruder = data.draw(st.sampled_from([
            codec.encode_round(2, 5),
            codec.encode_complete(1, bytes(codec.digest_size)),
            b"\x7f" * 40,
        ]))
        blob = b"".join(singles[:where]) + intruder + b"".join(singles[where:])
        frames, consumed = codec.decode_pages(blob, len(rows) + 1)
        assert frames == rows[:where]
        assert consumed == sum(map(len, singles[:where]))

    @given(codec_and_rows(min_size=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_honours_max_frames(self, case, data):
        codec, rows = case
        singles = [encode_single(codec, row) for row in rows]
        limit = data.draw(st.integers(0, len(rows) + 2))
        frames, consumed = codec.decode_pages(b"".join(singles), limit)
        assert frames == rows[:limit]
        assert consumed == sum(map(len, singles[:limit]))
