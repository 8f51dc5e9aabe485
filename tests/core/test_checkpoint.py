"""Unit tests for repro.core.checkpoint."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.checkpoint import Checkpoint, ChecksumIndex
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
