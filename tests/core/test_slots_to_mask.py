"""A slot list that names a slot outside the image is rejected, not wrapped.

numpy indexing reads ``-1`` as "the last slot", so a stray negative entry
in ``dirty_slots`` used to mark the end of the image dirty without a
word.  Every place that turns a slot list into a mask goes through
:func:`repro.core.transfer.slots_to_mask`; these tests pin the error at
each entry point.
"""

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE_DIRTY
from repro.core.transfer import Method, compute_transfer_set, slots_to_mask
from repro.migration.precopy import simulate_migration
from repro.net.link import LAN_1GBE
from repro.runtime.planner import dirty_round_sends, plan_first_round
from repro.storage.blocksync import plan_disk_sync

HASHES = np.arange(1, 9, dtype=np.uint64)
BAD_SLOTS = [pytest.param([-1], "-1", id="negative"), pytest.param([2, 8], "8", id="past-end")]


def test_mask_marks_listed_slots_in_any_order_with_repeats():
    assert slots_to_mask([5, 0, 5, 2], 6).tolist() == [True, False, True, False, False, True]
    assert slots_to_mask([], 3).tolist() == [False, False, False]
    assert slots_to_mask(np.arange(4), 4).all()


@pytest.mark.parametrize("slots, named", BAD_SLOTS)
def test_mask_names_the_offending_slot(slots, named):
    with pytest.raises(ValueError, match=f"slot {named} "):
        slots_to_mask(slots, 8)


@pytest.mark.parametrize("slots, named", BAD_SLOTS)
def test_compute_transfer_set_rejects(slots, named):
    image = Fingerprint(HASHES)
    with pytest.raises(ValueError, match=f"slot {named} "):
        compute_transfer_set(Method.DIRTY, image, checkpoint=image, dirty_slots=slots)


@pytest.mark.parametrize("slots, named", BAD_SLOTS)
def test_plan_first_round_rejects(slots, named):
    with pytest.raises(ValueError, match=f"slot {named} "):
        plan_first_round(Method.DIRTY, HASHES, dirty_slots=slots)


@pytest.mark.parametrize("slots, named", BAD_SLOTS)
def test_dirty_round_sends_rejects(slots, named):
    with pytest.raises(ValueError, match=f"slot {named} "):
        dirty_round_sends(HASHES, slots)


@pytest.mark.parametrize("slots, named", BAD_SLOTS)
def test_plan_disk_sync_rejects(slots, named):
    with pytest.raises(ValueError, match=f"slot {named} "):
        plan_disk_sync(HASHES, destination_replica=HASHES, dirty_blocks=slots)


def test_simulated_migration_rejects_a_tracker_reporting_a_negative_slot(
    small_vm, small_checkpoint, monkeypatch
):
    monkeypatch.setattr(small_vm.tracker, "dirty_since", lambda vector: np.asarray([-1]))
    with pytest.raises(ValueError, match="slot -1 "):
        simulate_migration(small_vm, VECYCLE_DIRTY, LAN_1GBE, checkpoint=small_checkpoint)
