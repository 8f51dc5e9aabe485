"""The runtime planner must agree with the analytic transfer set.

This equivalence is the hinge of the whole runtime-vs-model
cross-validation: :func:`plan_first_round` makes per-slot decisions and
:func:`compute_transfer_set` only counts, but for the same inputs the
counts must be identical for every method.
"""

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.transfer import Method, compute_transfer_set
from repro.mem.pagestore import PageStore
from repro.runtime.planner import (
    KIND_CHECKSUM,
    KIND_FULL,
    KIND_PLAIN,
    KIND_REF,
    KIND_SKIP,
    dirty_round_sends,
    plan_first_round,
)

N = 512


@pytest.fixture
def scenario():
    rng = np.random.default_rng(99)
    checkpoint = rng.integers(1, 2**62, size=N, dtype=np.uint64)
    # Inject duplicates so dedup has work to do.
    dup = rng.choice(N, size=N // 8, replace=False)
    checkpoint[dup] = checkpoint[rng.integers(0, N, size=N // 8)]
    current = checkpoint.copy()
    dirty = np.sort(rng.choice(N, size=N // 5, replace=False))
    current[dirty] = rng.integers(2**62, 2**63, size=dirty.size, dtype=np.uint64)
    # Some dirtied slots duplicate other dirtied slots' new content.
    current[dirty[1::4]] = current[dirty[0]]
    return checkpoint, current, dirty


def announced_set(checkpoint: np.ndarray, store: PageStore):
    return frozenset(store.digest_for(int(cid)) for cid in np.unique(checkpoint))


@pytest.mark.parametrize("method", list(Method))
def test_planner_counts_match_analytic_transfer_set(method, scenario):
    checkpoint, current, dirty = scenario
    store = PageStore()
    plan = plan_first_round(
        method,
        current,
        announced=announced_set(checkpoint, store) if method.uses_hashes else None,
        digest_of=store.digest_for if method.uses_hashes else None,
        dirty_slots=dirty if method.uses_dirty_tracking else None,
    )
    analytic = compute_transfer_set(
        method,
        Fingerprint(hashes=current),
        checkpoint=Fingerprint(hashes=checkpoint) if method.uses_checkpoint else None,
        dirty_slots=dirty if method.uses_dirty_tracking else None,
    )
    assert plan.full_pages == analytic.full_pages
    assert plan.ref_pages == analytic.ref_pages
    assert plan.checksum_only_pages == analytic.checksum_only_pages
    assert plan.skipped_pages == analytic.skipped_pages
    assert plan.checksummed_pages == analytic.checksummed_pages
    assert (
        plan.full_pages + plan.ref_pages + plan.checksum_only_pages
        + plan.skipped_pages
    ) == N


def test_sends_are_slot_ordered_and_refs_point_backward(scenario):
    checkpoint, current, dirty = scenario
    store = PageStore()
    plan = plan_first_round(
        Method.HASHES_DEDUP,
        current,
        announced=announced_set(checkpoint, store),
        digest_of=store.digest_for,
    )
    sends = plan.sends()
    slots = [s.slot for s in sends]
    assert slots == sorted(slots)
    sent_so_far = set()
    for send in sends:
        if send.kind == KIND_REF:
            assert send.ref in sent_so_far, "dedup ref must target an earlier slot"
            assert current[send.ref] == send.content_id
        sent_so_far.add(send.slot)


def test_full_method_sends_every_page_plain():
    hashes = np.arange(1, 65, dtype=np.uint64)
    plan = plan_first_round(Method.FULL, hashes)
    assert plan.count(KIND_PLAIN) == 64
    assert plan.count(KIND_SKIP) == 0
    assert plan.checksummed_pages == 0


def test_hashes_with_empty_announce_degrades_to_full_messages():
    # First visit to a host: nothing announced, every page goes in full
    # (with its checksum, per the §3.2 message format).
    store = PageStore()
    hashes = np.arange(1, 33, dtype=np.uint64)
    plan = plan_first_round(
        Method.HASHES, hashes, announced=frozenset(), digest_of=store.digest_for
    )
    assert plan.count(KIND_FULL) == 32
    assert plan.count(KIND_CHECKSUM) == 0


def test_perfect_similarity_sends_only_checksums():
    store = PageStore()
    hashes = np.arange(1, 129, dtype=np.uint64)
    plan = plan_first_round(
        Method.HASHES,
        hashes,
        announced=announced_set(hashes, store),
        digest_of=store.digest_for,
    )
    assert plan.count(KIND_CHECKSUM) == 128
    assert plan.full_pages == 0


def test_missing_required_inputs_rejected():
    hashes = np.arange(1, 9, dtype=np.uint64)
    with pytest.raises(ValueError, match="announced checksum set"):
        plan_first_round(Method.HASHES, hashes)
    with pytest.raises(ValueError, match="dirty_slots"):
        plan_first_round(Method.DIRTY, hashes)


def test_plan_dirty_round_is_sorted_unique_plain():
    hashes = np.arange(100, 164, dtype=np.uint64)
    sends = dirty_round_sends(hashes, np.array([5, 3, 5, 60, 3])).as_list()
    assert [s.slot for s in sends] == [3, 5, 60]
    assert all(s.kind == KIND_PLAIN for s in sends)
    assert [s.content_id for s in sends] == [103, 105, 160]
