"""Unit tests for repro.core.protocol."""

import numpy as np
import pytest

from repro.core.checksum import PAGE_SIZE, get_algorithm
from repro.core.fingerprint import Fingerprint
from repro.core.protocol import (
    WireFormat,
    first_round_traffic,
    per_page_query_traffic,
)
from repro.core.transfer import Method, compute_transfer_set


def fp(values):
    return Fingerprint(hashes=np.asarray(values, dtype=np.uint64))


class TestWireFormat:
    def test_default_checksum_is_md5_sized(self):
        assert WireFormat().checksum_bytes == 16

    def test_for_algorithm(self):
        wire = WireFormat.for_algorithm(get_algorithm("sha256"))
        assert wire.checksum_bytes == 32

    def test_message_sizes(self):
        wire = WireFormat()
        assert wire.full_page_message == 9 + 16 + PAGE_SIZE
        assert wire.checksum_message == 9 + 16
        assert wire.ref_message == 9 + 8
        assert wire.plain_page_message == 9 + PAGE_SIZE


class TestFirstRoundTraffic:
    def test_full_migration_traffic(self):
        ts = compute_transfer_set(Method.FULL, fp([1, 2, 3]))
        traffic = first_round_traffic(ts)
        # Plain pages, no checksums on a stock migration.
        assert traffic.payload_bytes == 3 * WireFormat().plain_page_message
        assert traffic.announce_bytes == 0
        assert traffic.messages == 3

    def test_vecycle_traffic_mixes_message_types(self):
        current, checkpoint = fp([1, 9, 3]), fp([1, 2, 3])
        ts = compute_transfer_set(Method.HASHES, current, checkpoint=checkpoint)
        wire = WireFormat()
        traffic = first_round_traffic(ts, wire, announce_unique_pages=3)
        expected = 1 * wire.full_page_message + 2 * wire.checksum_message
        assert traffic.payload_bytes == expected
        assert traffic.announce_bytes == wire.announce_frame_bytes(3)
        assert traffic.total_bytes == expected + wire.announce_frame_bytes(3)

    def test_announce_skipped_for_ping_pong(self):
        current, checkpoint = fp([1, 2]), fp([1, 2])
        ts = compute_transfer_set(Method.HASHES, current, checkpoint=checkpoint)
        traffic = first_round_traffic(ts, announce_unique_pages=None)
        assert traffic.announce_bytes == 0

    def test_first_visit_is_charged_the_empty_announce(self):
        ts = compute_transfer_set(Method.HASHES, fp([1, 2]))
        wire = WireFormat()
        traffic = first_round_traffic(ts, wire, announce_unique_pages=0)
        assert traffic.announce_bytes == wire.announce_frame_bytes(0) == 5
        assert traffic.payload_bytes == 2 * wire.full_page_message

    def test_dedup_refs_are_cheap(self):
        ts = compute_transfer_set(Method.DEDUP, fp([5, 5, 5, 5]))
        wire = WireFormat()
        traffic = first_round_traffic(ts, wire)
        assert traffic.payload_bytes == wire.plain_page_message + 3 * wire.ref_message

    def test_traffic_shrinks_with_similarity(self):
        checkpoint = fp(list(range(100)))
        similar = fp(list(range(100)))
        divergent = fp(list(range(100, 200)))
        wire = WireFormat()
        low = first_round_traffic(
            compute_transfer_set(Method.HASHES, similar, checkpoint=checkpoint), wire
        )
        high = first_round_traffic(
            compute_transfer_set(Method.HASHES, divergent, checkpoint=checkpoint), wire
        )
        assert low.payload_bytes < high.payload_bytes / 10


class TestPerPageQuery:
    def test_query_traffic_scales_with_pages(self):
        one = per_page_query_traffic(1)
        many = per_page_query_traffic(1000)
        assert many.payload_bytes == 1000 * one.payload_bytes
        assert many.messages == 1000

    def test_negative_pages_rejected(self):
        with pytest.raises(ValueError):
            per_page_query_traffic(-1)

    def test_byte_volume_comparable_to_bulk_announce(self):
        # §3.2: the volume is similar; the latency (modelled in the link
        # layer) is what kills the per-page scheme.
        wire = WireFormat()
        num_pages = 1 << 16
        query = per_page_query_traffic(num_pages, wire)
        bulk = num_pages * wire.checksum_bytes
        assert query.total_bytes < 3 * bulk
