"""Unit tests for repro.core.dedup: the sender's per-migration cache.

The split of a send stream into full sends and references is
:func:`first_occurrence`: the first copy of a content travels, every
repeat refers back to it.
"""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dedup import first_occurrence

hash_arrays = arrays(
    dtype=np.uint64,
    shape=st.integers(min_value=0, max_value=128),
    elements=st.integers(min_value=0, max_value=15),
)


def dedup_split(hashes):
    full = first_occurrence(hashes)
    return full, ~full


class TestDedupSplit:
    def test_all_unique_all_full(self):
        full, ref = dedup_split(np.asarray([1, 2, 3], dtype=np.uint64))
        assert full.all() and not ref.any()

    def test_repeats_become_refs(self):
        full, ref = dedup_split(np.asarray([5, 5, 5], dtype=np.uint64))
        assert list(full) == [True, False, False]
        assert list(ref) == [False, True, True]

    def test_first_occurrence_in_stream_order_is_full(self):
        full, _ = dedup_split(np.asarray([9, 1, 9, 1, 2], dtype=np.uint64))
        assert list(full) == [True, True, False, False, True]

    def test_empty_input(self):
        full, ref = dedup_split(np.asarray([], dtype=np.uint64))
        assert full.size == 0 and ref.size == 0

    @given(hash_arrays)
    def test_masks_partition_input(self, hashes):
        full, ref = dedup_split(hashes)
        assert (full ^ ref).all() or hashes.size == 0
        assert int(full.sum()) == len(set(hashes.tolist()))

    @given(hash_arrays)
    def test_split_agrees_with_cache(self, hashes):
        # A sender-side cache, one page at a time: a miss sends the page.
        seen = set()
        expected = []
        for value in hashes.tolist():
            expected.append(value not in seen)
            seen.add(value)
        full, _ = dedup_split(hashes)
        assert list(full) == expected
