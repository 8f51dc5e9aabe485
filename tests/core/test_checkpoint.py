"""Unit tests for repro.core.checkpoint."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.checkpoint import (
    CapacityError,
    Checkpoint,
    CheckpointStore,
    ChecksumIndex,
)
from repro.core.checksum import PAGE_SIZE
from repro.core.fingerprint import Fingerprint


def fp(values):
    return Fingerprint(hashes=np.asarray(values, dtype=np.uint64))


class TestChecksumIndex:
    def test_lookup_present(self):
        index = ChecksumIndex(fp([10, 20, 30]))
        assert index.lookup(20) == 1

    def test_lookup_absent_returns_none(self):
        index = ChecksumIndex(fp([10, 20, 30]))
        assert index.lookup(25) is None

    def test_contains_protocol(self):
        index = ChecksumIndex(fp([10, 20]))
        assert 10 in index and 15 not in index

    def test_duplicates_keep_first_slot(self):
        index = ChecksumIndex(fp([7, 5, 7, 5]))
        assert index.lookup(7) == 0
        assert index.lookup(5) == 1

    def test_len_counts_unique(self):
        assert len(ChecksumIndex(fp([1, 1, 2, 3, 3]))) == 3

    def test_contains_many(self):
        index = ChecksumIndex(fp([1, 2, 3]))
        mask = index.contains_many(np.asarray([0, 2, 5, 3], dtype=np.uint64))
        assert list(mask) == [False, True, False, True]

    def test_contains_many_empty_index(self):
        index = ChecksumIndex(fp([4]))
        # A one-entry index against queries outside its range.
        mask = index.contains_many(np.asarray([1, 4, 9], dtype=np.uint64))
        assert list(mask) == [False, True, False]

    def test_contains_many_empty_queries(self):
        index = ChecksumIndex(fp([1, 2]))
        assert index.contains_many(np.asarray([], dtype=np.uint64)).size == 0

    @given(
        arrays(
            dtype=np.uint64,
            shape=st.integers(min_value=1, max_value=64),
            elements=st.integers(min_value=0, max_value=20),
        ),
        arrays(
            dtype=np.uint64,
            shape=st.integers(min_value=0, max_value=64),
            elements=st.integers(min_value=0, max_value=25),
        ),
    )
    def test_contains_many_always_matches_scalar(self, members, queries):
        index = ChecksumIndex(fp(members))
        mask = index.contains_many(queries)
        assert list(mask) == [index.lookup(int(q)) is not None for q in queries]

    def test_unique_hashes_sorted_readonly(self):
        index = ChecksumIndex(fp([3, 1, 2]))
        unique = index.unique_hashes
        assert list(unique) == [1, 2, 3]
        with pytest.raises(ValueError):
            unique[0] = 9

    @given(
        arrays(
            dtype=np.uint64,
            shape=st.integers(min_value=1, max_value=64),
            elements=st.integers(min_value=0, max_value=20),
        )
    )
    def test_lookup_always_finds_member_contents(self, values):
        fingerprint = Fingerprint(hashes=values)
        index = ChecksumIndex(fingerprint)
        for value in np.unique(values):
            slot = index.lookup(int(value))
            assert slot is not None
            assert fingerprint.hashes[slot] == value


class TestCheckpoint:
    def test_size_bytes(self):
        checkpoint = Checkpoint(vm_id="vm", fingerprint=fp([1] * 8))
        assert checkpoint.size_bytes == 8 * PAGE_SIZE

    def test_index_lazy_and_cached(self):
        checkpoint = Checkpoint(vm_id="vm", fingerprint=fp([1, 2]))
        assert checkpoint.index is checkpoint.index


class TestCheckpointStore:
    def _checkpoint(self, vm_id, pages=4):
        return Checkpoint(vm_id=vm_id, fingerprint=fp(list(range(pages))))

    def test_store_and_get(self):
        store = CheckpointStore()
        checkpoint = self._checkpoint("vm1")
        store.store(checkpoint)
        assert store.get("vm1") is checkpoint
        assert "vm1" in store

    def test_missing_vm_returns_none(self):
        assert CheckpointStore().get("nope") is None

    def test_replacement_keeps_one_per_vm(self):
        store = CheckpointStore()
        store.store(self._checkpoint("vm1"))
        newer = self._checkpoint("vm1")
        store.store(newer)
        assert len(store) == 1
        assert store.get("vm1") is newer

    def test_capacity_evicts_lru(self):
        page_bytes = 4 * PAGE_SIZE
        store = CheckpointStore(capacity_bytes=2 * page_bytes)
        store.store(self._checkpoint("a"))
        store.store(self._checkpoint("b"))
        store.get("a")  # refresh a → b becomes LRU
        store.store(self._checkpoint("c"))
        assert "a" in store and "c" in store and "b" not in store

    def test_oversized_checkpoint_rejected(self):
        store = CheckpointStore(capacity_bytes=PAGE_SIZE)
        with pytest.raises(ValueError):
            store.store(self._checkpoint("vm", pages=4))

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CheckpointStore(capacity_bytes=0)

    def test_evict(self):
        store = CheckpointStore()
        store.store(self._checkpoint("vm1"))
        store.evict("vm1")
        assert "vm1" not in store
        store.evict("vm1")  # idempotent

    def test_used_bytes(self):
        store = CheckpointStore()
        store.store(self._checkpoint("a", pages=2))
        store.store(self._checkpoint("b", pages=3))
        assert store.used_bytes == 5 * PAGE_SIZE


class TestCapacityEvictionRegressions:
    """Regression tests for the eviction bugs fixed in this PR."""

    def _checkpoint(self, vm_id, pages=4):
        return Checkpoint(vm_id=vm_id, fingerprint=fp(list(range(pages))))

    def test_own_vm_is_never_an_eviction_victim(self):
        # Replacing "a" while it is the LRU entry used to evict "a"
        # itself mid-store, corrupting the bookkeeping.
        store = CheckpointStore(capacity_bytes=2 * 4 * PAGE_SIZE)
        store.store(self._checkpoint("a"))
        store.store(self._checkpoint("b"))  # "a" is now the LRU entry
        replacement = self._checkpoint("a")
        store.store(replacement)
        assert store.get("a") is replacement
        assert "b" in store  # the innocent VM survived
        assert store.used_bytes == 2 * 4 * PAGE_SIZE

    def test_replaced_size_subtracted_before_evicting_others(self):
        # Replacing a VM's 3-page checkpoint with a 4-page one in an
        # 8-page store must not evict anyone: 8 - 3 + 4 ≤ 8 after the
        # swap.  Double-counting the replaced bytes evicted "b".
        store = CheckpointStore(capacity_bytes=8 * PAGE_SIZE)
        store.store(self._checkpoint("a", pages=3))
        store.store(self._checkpoint("b", pages=4))
        store.store(self._checkpoint("a", pages=4))
        assert "b" in store
        assert store.used_bytes == 8 * PAGE_SIZE

    def test_oversized_checkpoint_raises_typed_capacity_error(self):
        store = CheckpointStore(capacity_bytes=PAGE_SIZE)
        with pytest.raises(CapacityError):
            store.store(self._checkpoint("vm", pages=4))

    def test_capacity_error_is_a_value_error(self):
        # Callers that caught the old bare ValueError keep working.
        assert issubclass(CapacityError, ValueError)

    def test_no_bare_min_value_error_when_store_holds_only_own_vm(self):
        # The old code fed an empty dict to min() and raised its bare
        # "min() arg is an empty sequence" ValueError.  Now the swap
        # succeeds: the VM's own checkpoint is dropped first, making
        # room without touching min() at all.
        store = CheckpointStore(capacity_bytes=4 * PAGE_SIZE)
        store.store(self._checkpoint("only", pages=4))
        store.store(self._checkpoint("only", pages=4))
        assert "only" in store

    def test_used_bytes_stays_consistent_through_churn(self):
        store = CheckpointStore(capacity_bytes=10 * PAGE_SIZE)
        for round_no in range(5):
            for vm_id in ("a", "b", "c"):
                store.store(self._checkpoint(vm_id, pages=2 + round_no % 2))
        expected = sum(
            store.get(vm_id).size_bytes for vm_id in ("a", "b", "c") if vm_id in store
        )
        assert store.used_bytes == expected

    def test_on_evict_fires_for_every_drop_path(self):
        dropped = []
        store = CheckpointStore(
            capacity_bytes=2 * 4 * PAGE_SIZE, on_evict=dropped.append
        )
        first_a = self._checkpoint("a")
        store.store(first_a)
        store.store(self._checkpoint("b"))
        store.store(self._checkpoint("a"))  # replacement drops first_a
        store.store(self._checkpoint("c"))  # capacity evicts LRU "b"
        store.evict("c")  # explicit eviction
        assert [checkpoint.vm_id for checkpoint in dropped] == ["a", "b", "c"]
        assert dropped[0] is first_a
