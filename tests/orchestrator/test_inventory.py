"""Inventory data model: sketches, JSON round trips, the cluster view."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.fingerprint import Fingerprint
from repro.orchestrator.inventory import (
    SKETCH_K,
    ClusterView,
    HostInventory,
    digest_sketch,
    sketch_similarity,
)
from repro.runtime import CheckpointDaemon
from repro.runtime.frames import FrameError


def digests_of(ids):
    return [bytes([i]) * 16 for i in ids]


class TestDigestSketch:
    def test_sketch_is_sorted_distinct_and_capped(self):
        # More than SKETCH_K distinct digests, each twice, in no order.
        digests = digests_of(list(range(200, 100, -1)) * 2)
        sketch = digest_sketch(digests)
        assert sketch == sorted({d.hex() for d in digests})[:SKETCH_K]
        assert len(sketch) == SKETCH_K

    def test_small_set_is_complete(self):
        assert len(digest_sketch(digests_of([1, 2]))) == 2

    def test_empty_set_has_an_empty_sketch(self):
        assert digest_sketch([]) == []

    def test_deterministic_regardless_of_order(self):
        ids = [(7 * i) % 101 for i in range(101)]
        a = digest_sketch(digests_of(ids))
        b = digest_sketch(digests_of(ids[::-1]))
        assert a == b and len(a) == SKETCH_K

    @given(
        # Mixed sizes, with a few values drawn often enough that
        # duplicates and digests that are prefixes of others turn up;
        # long lists hold more distinct digests than the sketch keeps.
        digests=st.lists(st.binary(min_size=1, max_size=4) | st.sampled_from(
            [b"\x00", b"\x00\x00", b"\x00\xff", b"\x0f", b"\xf0", b"\xff"]
        ), max_size=2 * SKETCH_K),
    )
    def test_bottom_k_on_bytes_equals_sorting_every_hex_string(self, digests):
        # The definition the sketch replaced: encode all, sort all, cut.
        assert digest_sketch(digests) == sorted({d.hex() for d in digests})[:SKETCH_K]
        assert digest_sketch(iter(digests)) == digest_sketch(digests)


class TestSketchSimilarity:
    def test_identical_sets_score_one(self):
        sketch = digest_sketch(digests_of(range(10)))
        assert sketch_similarity(sketch, sketch) == 1.0

    def test_disjoint_sets_score_zero(self):
        a = digest_sketch(digests_of(range(0, 10)))
        b = digest_sketch(digests_of(range(100, 110)))
        assert sketch_similarity(a, b) == 0.0

    def test_empty_sketch_scores_zero(self):
        assert sketch_similarity((), ("ab",)) == 0.0

    def test_higher_overlap_scores_higher(self):
        # Sets twice the sketch size: each sketch is a sample.
        current = digest_sketch(digests_of(range(0, 128)))
        close = digest_sketch(digests_of(range(0, 112)))
        far = digest_sketch(digests_of(range(96, 224)))
        assert sketch_similarity(current, close) > sketch_similarity(current, far)

    def test_bottom_k_estimate_counts_shared_union_minima(self):
        # The estimator samples the k smallest of the union, with
        # k = max(|a|, |b|): here that is ids 1–4, of which 3 and 4
        # appear in both sketches.
        a = digest_sketch(digests_of([1, 2, 3, 4]))
        b = digest_sketch(digests_of([3, 4, 5, 6]))
        assert sketch_similarity(a, b) == pytest.approx(2 / 4)

    def test_estimate_is_exact_when_union_fits_the_sample(self):
        a = digest_sketch(digests_of([1, 2, 3]))
        b = digest_sketch(digests_of([1, 2, 3, 4]))
        assert sketch_similarity(a, b) == pytest.approx(3 / 4)


class TestJsonRoundTrip:
    def test_host_inventory_from_report(self):
        daemon = CheckpointDaemon()
        daemon.install_checkpoint(
            "vm-a", Fingerprint(hashes=np.arange(1, 9, dtype=np.uint64))
        )
        body = json.loads(json.dumps(daemon.inventory_report()))
        inventory = HostInventory.from_report(body)
        assert inventory.active_sessions == 0
        assert inventory.checkpoints == {
            "vm-a": tuple(daemon.checkpoints["vm-a"].sketch)
        }
        assert len(inventory.checkpoints["vm-a"]) == 8

    @pytest.mark.parametrize(
        "body",
        [
            [],
            {"checkpoints": {}},
            {"active_sessions": "busy", "checkpoints": {}},
            {"active_sessions": True, "checkpoints": {}},
            {"active_sessions": 0},
            {"active_sessions": 0, "checkpoints": [{"sketch": ["aa"]}]},
            {"active_sessions": 0, "checkpoints": {"vm": "aa"}},
            {"active_sessions": 0, "checkpoints": {"vm": [1, 2]}},
        ],
    )
    def test_a_misshapen_report_is_a_frame_error(self, body):
        with pytest.raises(FrameError):
            HostInventory.from_report(body)


class TestClusterView:
    def test_hosts_sorted(self):
        b = HostInventory(active_sessions=0, checkpoints={"vm-1": ()})
        view = ClusterView(inventories={"b": b, "a": HostInventory(1, {})})
        assert view.hosts() == ["a", "b"]
        assert view.get("b") is b
        assert view.get("c") is None
