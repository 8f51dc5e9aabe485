"""Unit and property tests for repro.core.transfer.

The central invariants of the paper's Figure 3 taxonomy live here:
every method partitions the slots, ``hashes`` never transfers more than
``dirty``, dedup never increases full pages, and adding dirty tracking
to hashes changes only the checksum work, not the transfer set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import Fingerprint
from repro.core.transfer import (
    Method,
    PAPER_METHODS,
    compare_methods,
    compute_transfer_set,
)


def fp(values):
    return Fingerprint(hashes=np.asarray(values, dtype=np.uint64))


def _expand_pair(n, alphabet, seed):
    return np.random.default_rng(seed).integers(0, alphabet, size=(2, n), dtype=np.uint64)


# A (current, checkpoint) pair of equal-length images as the two rows of
# one array.  Hypothesis draws three integers and numpy expands them, so
# generation cost does not grow with the image (a drawn element per slot
# tripped the too-slow health check on a loaded box); a small alphabet
# keeps duplicates and checkpoint hits frequent, and alphabet 1 is the
# all-duplicate image.
pair_strategy = st.builds(
    _expand_pair,
    n=st.integers(min_value=1, max_value=48),
    alphabet=st.integers(min_value=1, max_value=13),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestFullAndDedup:
    def test_full_sends_everything(self):
        ts = compute_transfer_set(Method.FULL, fp([1, 1, 2]))
        assert ts.full_pages == 3
        assert ts.page_fraction == 1.0

    def test_dedup_sends_unique_contents(self):
        ts = compute_transfer_set(Method.DEDUP, fp([1, 1, 2, 2, 2]))
        assert ts.full_pages == 2
        assert ts.ref_pages == 3

    def test_dedup_checksums_every_page(self):
        ts = compute_transfer_set(Method.DEDUP, fp([1, 2, 3]))
        assert ts.checksummed_pages == 3


class TestDirtyMethods:
    def test_dirty_sends_changed_slots_only(self):
        current, checkpoint = fp([1, 9, 3, 8]), fp([1, 2, 3, 4])
        ts = compute_transfer_set(Method.DIRTY, current, checkpoint=checkpoint)
        assert ts.full_pages == 2
        assert ts.skipped_pages == 2
        assert ts.checksummed_pages == 0  # dirty tracking needs no hashing

    def test_dirty_with_explicit_slots(self):
        current, checkpoint = fp([1, 2, 3]), fp([1, 2, 3])
        ts = compute_transfer_set(
            Method.DIRTY,
            current,
            checkpoint=checkpoint,
            dirty_slots=np.asarray([0, 2]),
        )
        # Explicit hardware-style dirty info wins over the content proxy:
        # a write that restored old bytes still counts as dirty.
        assert ts.full_pages == 2

    def test_dirty_dedup_dedups_within_dirty_set(self):
        current, checkpoint = fp([9, 9, 3, 9]), fp([1, 2, 3, 4])
        ts = compute_transfer_set(Method.DIRTY_DEDUP, current, checkpoint=checkpoint)
        assert ts.full_pages == 1  # one distinct new content
        assert ts.ref_pages == 2
        assert ts.skipped_pages == 1

    def test_relocation_makes_dirty_overestimate(self):
        # Contents swap slots: dirty resends both, hashes resends none.
        current, checkpoint = fp([2, 1]), fp([1, 2])
        dirty = compute_transfer_set(Method.DIRTY, current, checkpoint=checkpoint)
        hashes = compute_transfer_set(Method.HASHES, current, checkpoint=checkpoint)
        assert dirty.full_pages == 2
        assert hashes.full_pages == 0
        assert hashes.checksum_only_pages == 2


class TestHashMethods:
    def test_hashes_skips_content_in_checkpoint(self):
        current, checkpoint = fp([1, 9, 3]), fp([1, 2, 3])
        ts = compute_transfer_set(Method.HASHES, current, checkpoint=checkpoint)
        assert ts.full_pages == 1
        assert ts.checksum_only_pages == 2

    def test_hashes_finds_content_at_other_offset(self):
        current, checkpoint = fp([4, 4, 4]), fp([9, 9, 4])
        ts = compute_transfer_set(Method.HASHES, current, checkpoint=checkpoint)
        assert ts.full_pages == 0
        assert ts.checksum_only_pages == 3

    def test_hashes_without_dedup_resends_duplicates(self):
        # §4.3: plain hashes transfers each missing slot in full, even
        # when several slots share the new content.
        current, checkpoint = fp([7, 7, 7]), fp([1, 2, 3])
        plain = compute_transfer_set(Method.HASHES, current, checkpoint=checkpoint)
        deduped = compute_transfer_set(
            Method.HASHES_DEDUP, current, checkpoint=checkpoint
        )
        assert plain.full_pages == 3
        assert deduped.full_pages == 1
        assert deduped.ref_pages == 2

    def test_dirty_hashes_same_pages_fewer_checksums(self):
        # §4.3 last paragraph: the dirty pre-filter saves checksum work
        # but identifies the same transfer set.
        current, checkpoint = fp([1, 9, 3, 4]), fp([1, 2, 3, 4])
        hashes = compute_transfer_set(Method.HASHES, current, checkpoint=checkpoint)
        both = compute_transfer_set(
            Method.DIRTY_HASHES, current, checkpoint=checkpoint
        )
        assert both.full_pages == hashes.full_pages
        assert both.checksummed_pages < hashes.checksummed_pages

    def test_missing_checkpoint_is_a_first_visit(self):
        # Nothing is a member: every page goes in full, each one hashed.
        ts = compute_transfer_set(Method.HASHES, fp([1, 1, 2]))
        assert (ts.full_pages, ts.checksum_only_pages, ts.checksummed_pages) == (3, 0, 3)
        assert compute_transfer_set(Method.HASHES_DEDUP, fp([1, 1, 2])).ref_pages == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_transfer_set(Method.HASHES, fp([1, 2]), checkpoint=fp([1]))


class TestMethodProperties:
    @given(pair_strategy)
    @settings(max_examples=60)
    def test_every_method_partitions_slots(self, pair):
        current_values, checkpoint_values = pair
        current, checkpoint = Fingerprint(current_values), Fingerprint(checkpoint_values)
        for method in Method:
            ts = compute_transfer_set(method, current, checkpoint=checkpoint)
            total = (
                ts.full_pages + ts.ref_pages + ts.checksum_only_pages + ts.skipped_pages
            )
            assert total == current.num_pages

    @given(pair_strategy)
    @settings(max_examples=60)
    def test_paper_ordering_invariants(self, pair):
        current_values, checkpoint_values = pair
        current, checkpoint = Fingerprint(current_values), Fingerprint(checkpoint_values)
        results = compare_methods(current, checkpoint, methods=tuple(Method))
        full = results[Method.FULL].full_pages
        # No method ever sends more than a full migration.
        for ts in results.values():
            assert ts.full_pages <= full
        # hashes ⊆ dirty (content proxy): a clean slot's content is in
        # the checkpoint by definition.
        assert results[Method.HASHES].full_pages <= results[Method.DIRTY].full_pages
        # Dedup never increases the page count.
        assert results[Method.HASHES_DEDUP].full_pages <= results[Method.HASHES].full_pages
        assert results[Method.DIRTY_DEDUP].full_pages <= results[Method.DIRTY].full_pages
        assert results[Method.DEDUP].full_pages <= full
        # Dirty pre-filtering does not change the hashes transfer set.
        assert (
            results[Method.DIRTY_HASHES].full_pages
            == results[Method.HASHES].full_pages
        )
        assert (
            results[Method.DIRTY_HASHES_DEDUP].full_pages
            == results[Method.HASHES_DEDUP].full_pages
        )

    @given(pair_strategy)
    @settings(max_examples=30)
    def test_page_fraction_bounded(self, pair):
        current_values, checkpoint_values = pair
        current, checkpoint = Fingerprint(current_values), Fingerprint(checkpoint_values)
        for method in PAPER_METHODS:
            ts = compute_transfer_set(method, current, checkpoint=checkpoint)
            assert 0.0 <= ts.page_fraction <= 1.0


class TestMethodMetadata:
    def test_uses_checkpoint_flags(self):
        assert not Method.FULL.uses_checkpoint
        assert not Method.DEDUP.uses_checkpoint
        assert Method.DIRTY.uses_checkpoint
        assert Method.HASHES.uses_checkpoint

    def test_uses_dedup_flags(self):
        assert Method.HASHES_DEDUP.uses_dedup
        assert not Method.HASHES.uses_dedup

    def test_paper_methods_are_the_figure5_five(self):
        assert len(PAPER_METHODS) == 5
        assert Method.FULL not in PAPER_METHODS
