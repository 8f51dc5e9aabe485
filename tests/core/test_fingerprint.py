"""Unit tests for repro.core.fingerprint."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.fingerprint import ZERO_HASH, Fingerprint, similarity_matrix


def fp(values, timestamp=0.0):
    return Fingerprint(hashes=np.asarray(values, dtype=np.uint64), timestamp=timestamp)


hash_arrays = arrays(
    dtype=np.uint64,
    shape=st.integers(min_value=1, max_value=64),
    elements=st.integers(min_value=0, max_value=12),
)


class TestBasics:
    def test_num_pages(self):
        assert fp([1, 2, 3]).num_pages == 3

    def test_rejects_2d_hashes(self):
        with pytest.raises(ValueError):
            Fingerprint(hashes=np.zeros((2, 2), dtype=np.uint64))

    def test_unique_hashes_sorted_and_deduped(self):
        unique = fp([5, 1, 5, 3, 1]).unique_hashes()
        assert list(unique) == [1, 3, 5]

    def test_num_unique(self):
        assert fp([7, 7, 7]).num_unique == 1

    def test_unique_cache_is_stable(self):
        fingerprint = fp([2, 1, 2])
        first = fingerprint.unique_hashes()
        assert fingerprint.unique_hashes() is first


class TestDuplicateAndZeroStats:
    def test_duplicate_fraction_all_unique(self):
        assert fp([1, 2, 3, 4]).duplicate_fraction() == 0.0

    def test_duplicate_fraction_half(self):
        assert fp([1, 1, 2, 2]).duplicate_fraction() == pytest.approx(0.5)

    def test_zero_fraction(self):
        assert fp([0, 0, 1, 2]).zero_fraction() == pytest.approx(0.5)

    def test_zero_hash_constant(self):
        assert int(ZERO_HASH) == 0


class TestSimilarity:
    def test_identical_fingerprints_similarity_one(self):
        a = fp([1, 2, 3])
        assert a.similarity_to(fp([1, 2, 3])) == 1.0

    def test_disjoint_fingerprints_similarity_zero(self):
        assert fp([1, 2]).similarity_to(fp([3, 4])) == 0.0

    def test_paper_definition_is_asymmetric(self):
        # |Ua ∩ Ub| / |Ua| — §2.3.
        a, b = fp([1, 2, 3, 4]), fp([1, 2, 5, 5])
        assert a.similarity_to(b) == pytest.approx(2 / 4)
        assert b.similarity_to(a) == pytest.approx(2 / 3)

    def test_duplicates_do_not_inflate_similarity(self):
        # Similarity counts unique hashes, not slots.
        a = fp([1, 1, 1, 2])
        b = fp([1, 3, 3, 3])
        assert a.similarity_to(b) == pytest.approx(1 / 2)

    @given(hash_arrays)
    def test_self_similarity_is_one(self, values):
        fingerprint = Fingerprint(hashes=values)
        assert fingerprint.similarity_to(fingerprint) == pytest.approx(1.0)

    @given(hash_arrays, hash_arrays)
    def test_similarity_bounded(self, a_values, b_values):
        a, b = Fingerprint(hashes=a_values), Fingerprint(hashes=b_values)
        assert 0.0 <= a.similarity_to(b) <= 1.0


class TestDirtySlots:
    def test_no_changes_no_dirty(self):
        a = fp([1, 2, 3])
        assert len(a.dirty_slots(since=fp([1, 2, 3]))) == 0

    def test_changed_slots_reported(self):
        current, old = fp([1, 9, 3]), fp([1, 2, 3])
        assert list(current.dirty_slots(since=old)) == [1]

    def test_relocated_content_counts_as_dirty(self):
        # Content swap: both slots dirty even though contents survive.
        current, old = fp([2, 1]), fp([1, 2])
        assert list(current.dirty_slots(since=old)) == [0, 1]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fp([1, 2]).dirty_slots(since=fp([1, 2, 3]))

    @given(hash_arrays)
    def test_dirty_against_self_is_empty(self, values):
        fingerprint = Fingerprint(hashes=values)
        assert fingerprint.dirty_slots(since=fingerprint).size == 0


class TestSimilarityMatrix:
    def test_diagonal_is_one(self):
        matrix = similarity_matrix([fp([1, 2]), fp([3, 4])])
        assert matrix[0, 0] == 1.0 and matrix[1, 1] == 1.0

    def test_matches_pairwise_calls(self):
        prints = [fp([1, 2, 3]), fp([1, 2, 9]), fp([9, 9, 9])]
        matrix = similarity_matrix(prints)
        for a in range(3):
            for b in range(3):
                assert matrix[a, b] == pytest.approx(
                    prints[a].similarity_to(prints[b])
                )
