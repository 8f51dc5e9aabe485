"""A loop-per-slot transcription of Figure 3, and the kernel checked against it.

``repro.core.transfer.slot_kinds`` is the one place that decides how a
page travels; the analytic counts, the Figure 5/8 fractions and the live
planner are all reductions over it, so their agreeing with each other no
longer says the *rule* is right.  This file is the independent witness:
:func:`oracle` walks the slots in send order and decides each one the way
the paper's prose does — is it a candidate?  is its content at the
destination?  has this content already been sent this round? — sharing
no code with the vectorised kernel.  It must stay this literal.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.methods import pair_fractions
from repro.core.checkpoint import ChecksumIndex
from repro.core.fingerprint import Fingerprint
from repro.core.transfer import KIND_NAMES, Method, compute_transfer_set, slot_kinds
from repro.runtime.planner import plan_first_round
from tests.core.test_transfer import pair_strategy

# Figure 3's filters per method: (dirty pre-filter, checkpoint hashes, dedup).
FILTERS = {
    Method.FULL: (False, False, False),
    Method.DEDUP: (False, False, True),
    Method.DIRTY: (True, False, False),
    Method.DIRTY_DEDUP: (True, False, True),
    Method.HASHES: (False, True, False),
    Method.HASHES_DEDUP: (False, True, True),
    Method.DIRTY_HASHES: (True, True, False),
    Method.DIRTY_HASHES_DEDUP: (True, True, True),
}


def test_method_flags_are_the_filter_table():
    # The full 8 x 4 truth table; a checkpoint is needed exactly when a
    # filter consults one.
    assert set(FILTERS) == set(Method)
    for method, (dirty_filter, hash_filter, dedup_filter) in FILTERS.items():
        assert (
            method.uses_dirty_tracking,
            method.uses_hashes,
            method.uses_dedup,
            method.uses_checkpoint,
        ) == (dirty_filter, hash_filter, dedup_filter, dirty_filter or hash_filter), method


def oracle(method, hashes, member, dirty):
    """Per-slot kind names, dedup ref targets and checksum work, by the book."""
    dirty_filter, hash_filter, dedup_filter = FILTERS[method]
    kinds, refs, checksummed = [], [], 0
    carrier = {}  # content -> the slot whose page carried it this round
    for slot, content in enumerate(int(value) for value in hashes):
        kind, ref = None, -1
        if dirty_filter and not dirty[slot]:
            kind = "skip"  # known clean: the destination's copy is current
        else:
            if hash_filter or dedup_filter:
                checksummed += 1  # the source hashes every page it considers
            if hash_filter and member[slot]:
                kind = "checksum"  # content is in the destination's checkpoint
            elif dedup_filter and content in carrier:
                kind, ref = "ref", carrier[content]
            else:
                kind = "full" if hash_filter else "plain"
                carrier.setdefault(content, slot)
        kinds.append(kind)
        refs.append(ref)
    return kinds, refs, checksummed


def kernel_names(kinds):
    return [KIND_NAMES.get(int(kind), "skip") for kind in kinds]


def digest_of(content_id):
    return int(content_id).to_bytes(8, "big")


def scattered_slots(n, seed):
    """Dirty slots the way a tracker may hand them over: unsorted, repeated."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=int(rng.integers(0, 2 * n + 1)))


def check_against_oracle(current, checkpoint, dirty_slots):
    n = current.shape[0]
    member = np.isin(current, checkpoint)
    dirty = np.zeros(n, dtype=bool)
    dirty[dirty_slots] = True
    announced = frozenset(digest_of(content) for content in checkpoint)
    for method in Method:
        want_kinds, want_refs, want_checksummed = oracle(method, current, member, dirty)

        kinds, checksummed = slot_kinds(method, current, member, dirty)
        assert kinds.dtype == np.int8
        assert kernel_names(kinds) == want_kinds, method
        assert checksummed == want_checksummed, method

        plan = plan_first_round(
            method,
            current,
            announced=announced if method.uses_hashes else None,
            digest_of=digest_of if method.uses_hashes else None,
            dirty_slots=dirty_slots if method.uses_dirty_tracking else None,
        )
        assert kernel_names(plan.kinds) == want_kinds, method
        assert plan.refs.tolist() == want_refs, method
        assert plan.checksummed_pages == want_checksummed, method

        counted = compute_transfer_set(
            method,
            Fingerprint(current),
            checkpoint=Fingerprint(checkpoint),
            dirty_slots=dirty_slots,
        )
        assert counted.full_pages == want_kinds.count("full") + want_kinds.count("plain")
        assert counted.ref_pages == want_kinds.count("ref"), method
        assert counted.checksum_only_pages == want_kinds.count("checksum"), method
        assert counted.skipped_pages == want_kinds.count("skip"), method
        assert counted.checksummed_pages == want_checksummed, method


@given(pair_strategy, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=120)
def test_kernel_planner_and_counts_match_the_oracle_slot_by_slot(pair, dirty_seed):
    current, checkpoint = pair
    check_against_oracle(current, checkpoint, scattered_slots(current.shape[0], dirty_seed))


@pytest.mark.parametrize(
    "current, checkpoint, dirty_slots",
    [
        pytest.param([7], [7], [0], id="one-slot-unchanged"),
        pytest.param([7], [3], [], id="one-slot-nothing-dirty"),
        pytest.param([5] * 6, [5] * 6, [4, 1, 4], id="all-duplicate-image"),
        pytest.param([5] * 6, [1, 2, 3, 4, 6, 8], range(6), id="all-duplicate-first-visit"),
        pytest.param([1, 2, 1, 3, 2], [9] * 5, range(5), id="member-all-false"),
        pytest.param([1, 2, 1, 3, 2], [2, 2, 1, 1, 3], [], id="dirty-all-false"),
        pytest.param([4, 4, 9, 4, 9, 1], [1] * 6, [5, 3, 3, 0, 5, 4], id="dirty-unsorted-repeated"),
    ],
)
def test_named_corner_cases(current, checkpoint, dirty_slots):
    check_against_oracle(
        np.asarray(current, dtype=np.uint64),
        np.asarray(checkpoint, dtype=np.uint64),
        np.asarray(list(dirty_slots), dtype=np.int64),
    )


@given(pair_strategy)
@settings(max_examples=60)
def test_pair_fractions_match_the_oracle(pair):
    current, checkpoint = pair
    n = current.shape[0]
    methods = tuple(Method)

    def full_share(member, dirty):
        shares = {}
        for method in methods:
            kinds, _, _ = oracle(method, current, member, dirty)
            shares[method] = (kinds.count("full") + kinds.count("plain")) / n
        return shares

    index = ChecksumIndex(Fingerprint(checkpoint))
    assert pair_fractions(current, checkpoint, index, methods) == full_share(
        np.isin(current, checkpoint), current != checkpoint
    )
    # No checkpoint anywhere: nothing is at the destination, every slot
    # is a candidate.
    assert pair_fractions(current, None, None, methods) == full_share(
        np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    )
