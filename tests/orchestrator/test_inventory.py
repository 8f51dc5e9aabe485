"""Inventory data model: sketches, JSON round trips, the cluster view."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.fingerprint import Fingerprint
from repro.orchestrator.inventory import (
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
        digests = digests_of([9, 3, 3, 7, 1, 5])
        sketch = digest_sketch(digests, k=3)
        assert sketch == sorted({d.hex() for d in digests})[:3]
        assert len(sketch) == 3

    def test_small_set_is_complete(self):
        assert len(digest_sketch(digests_of([1, 2]), k=64)) == 2

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            digest_sketch(digests_of([1]), k=0)

    def test_deterministic_regardless_of_order(self):
        a = digest_sketch(digests_of([5, 1, 9, 7]), k=2)
        b = digest_sketch(digests_of([9, 7, 5, 1]), k=2)
        assert a == b

    @given(
        # Mixed sizes, with a few values drawn often enough that
        # duplicates and digests that are prefixes of others turn up; k
        # runs from 1 to past the distinct count.
        digests=st.lists(st.binary(min_size=1, max_size=4) | st.sampled_from(
            [b"\x00", b"\x00\x00", b"\x00\xff", b"\x0f", b"\xf0", b"\xff"]
        ), max_size=40),
        k=st.integers(min_value=1, max_value=50),
    )
    def test_bottom_k_on_bytes_equals_sorting_every_hex_string(self, digests, k):
        # The definition the sketch replaced: encode all, sort all, cut.
        assert digest_sketch(digests, k=k) == sorted({d.hex() for d in digests})[:k]
        assert digest_sketch(iter(digests), k=k) == digest_sketch(digests, k=k)


class TestSketchSimilarity:
    def test_identical_sets_score_one(self):
        sketch = digest_sketch(digests_of(range(10)), k=8)
        assert sketch_similarity(sketch, sketch) == 1.0

    def test_disjoint_sets_score_zero(self):
        a = digest_sketch(digests_of(range(0, 10)), k=8)
        b = digest_sketch(digests_of(range(100, 110)), k=8)
        assert sketch_similarity(a, b) == 0.0

    def test_empty_sketch_scores_zero(self):
        assert sketch_similarity((), ("ab",)) == 0.0

    def test_higher_overlap_scores_higher(self):
        current = digest_sketch(digests_of(range(0, 32)), k=16)
        close = digest_sketch(digests_of(range(0, 28)), k=16)
        far = digest_sketch(digests_of(range(24, 56)), k=16)
        assert sketch_similarity(current, close) > sketch_similarity(current, far)

    def test_bottom_k_estimate_counts_shared_union_minima(self):
        # The estimator samples the k smallest of the union, with
        # k = max(|a|, |b|): here that is ids 1–4, of which 3 and 4
        # appear in both sketches.
        a = digest_sketch(digests_of([1, 2, 3, 4]), k=64)
        b = digest_sketch(digests_of([3, 4, 5, 6]), k=64)
        assert sketch_similarity(a, b) == pytest.approx(2 / 4)

    def test_estimate_is_exact_when_union_fits_the_sample(self):
        a = digest_sketch(digests_of([1, 2, 3]), k=64)
        b = digest_sketch(digests_of([1, 2, 3, 4]), k=64)
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
