"""Inventory data model: sketches, JSON round trips, the cluster view."""

import pytest
from hypothesis import given, strategies as st

from repro.orchestrator.inventory import (
    CheckpointSummary,
    ClusterView,
    HostInventory,
    digest_sketch,
    sketch_similarity,
)


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
    def test_checkpoint_summary_round_trips(self):
        summary = CheckpointSummary(
            vm_id="vm-a",
            pages=2048,
            unique_pages=1900,
            stored_bytes=1900 * 4096,
            timestamp=12.5,
            last_used=99.0,
            sketch=("aa", "bb"),
        )
        assert CheckpointSummary.from_json(summary.to_json()) == summary

    def test_host_inventory_from_report(self):
        body = {
            "host": "host-a",
            "port": 1234,
            "active_sessions": 1,
            "max_concurrent_migrations": 3,
            "seq": 7,
            "checkpoints": [
                {
                    "vm_id": "vm-a",
                    "pages": 10,
                    "unique_pages": 9,
                    "stored_bytes": 9 * 4096,
                    "sketch": ["aa"],
                }
            ],
        }
        inventory = HostInventory.from_report(body)
        assert inventory.host == "host-a"
        assert inventory.seq == 7
        assert inventory.max_concurrent_migrations == 3
        assert inventory.checkpoint_for("vm-a").pages == 10
        assert inventory.checkpoint_for("nope") is None
        assert inventory.stored_bytes == 9 * 4096


class TestClusterView:
    def build_view(self):
        def inv(host, vms):
            return HostInventory(
                host=host,
                port=0,
                active_sessions=0,
                max_concurrent_migrations=2,
                checkpoints={
                    vm: CheckpointSummary(
                        vm_id=vm,
                        pages=1,
                        unique_pages=1,
                        stored_bytes=4096,
                        timestamp=0.0,
                        last_used=0.0,
                        sketch=(),
                    )
                    for vm in vms
                },
            )

        return ClusterView(
            inventories={
                "b": inv("b", ["vm-1"]),
                "a": inv("a", ["vm-1", "vm-2"]),
            }
        )

    def test_hosts_sorted(self):
        assert self.build_view().hosts() == ["a", "b"]

    def test_checkpoints_for_finds_every_holder(self):
        view = self.build_view()
        assert sorted(view.checkpoints_for("vm-1")) == ["a", "b"]
        assert list(view.checkpoints_for("vm-2")) == ["a"]
        assert view.checkpoints_for("vm-3") == {}
        assert view.total_checkpoints == 3
