"""FaultSchedule: determinism, serialization, and validation."""

import hashlib

import pytest

from repro.chaos import FaultKind, FaultSchedule, FaultSpec

# sha256 of FaultSchedule.generate(seed, 20).to_json() for the CI sweep
# seeds, recorded before FaultKind became an enum carrying its weights:
# a pinned seed must keep meaning the same schedule.
GOLDEN_SCHEDULES = {
    3: "0f59ca58612918645e769906fc8bd0cb9b932222f6aa08c2f963f196942ff3c8",
    7: "7a6bf185ac04675c28c8e37ed720104a4f3d8b93d3582a7b4518ebe6d0d28716",
    10: "0385ff06746f6d9c450ed628ceb5286ffd9151cb8366b97e43eda0545ee27127",
    11: "d8fc436b87255516bfb4f79dded49daad994583675bf82f77eab28c88dff721b",
}


def test_same_seed_same_schedule():
    a = FaultSchedule.generate(seed=7, rounds=24)
    b = FaultSchedule.generate(seed=7, rounds=24)
    assert a == b
    assert a.faults == b.faults


def test_different_seeds_diverge():
    a = FaultSchedule.generate(seed=1, rounds=24)
    b = FaultSchedule.generate(seed=2, rounds=24)
    assert a.faults != b.faults


def test_intensity_bounds_fault_count():
    none = FaultSchedule.generate(seed=3, rounds=16, intensity=0.0)
    assert none.faults == ()
    full = FaultSchedule.generate(seed=3, rounds=16, intensity=1.0)
    assert len(full.faults) == 16


def test_at_most_one_fault_per_round():
    schedule = FaultSchedule.generate(seed=5, rounds=40)
    for round_no in range(40):
        assert len(schedule.for_round(round_no)) <= 1


def test_kind_restriction_honoured():
    kinds = (FaultKind.DISCONNECT, FaultKind.STALL_UNDER)
    schedule = FaultSchedule.generate(seed=9, rounds=30, kinds=kinds)
    assert schedule.faults  # 30 rounds at default intensity: non-empty
    assert set(schedule.kind_counts()) <= set(kinds)


def test_json_roundtrip_is_lossless():
    schedule = FaultSchedule.generate(seed=11, rounds=20)
    assert FaultSchedule.from_json(schedule.to_json()) == schedule


def test_json_encoding_is_stable():
    for seed, digest in GOLDEN_SCHEDULES.items():
        encoded = FaultSchedule.generate(seed, 20).to_json()
        assert hashlib.sha256(encoded.encode()).hexdigest() == digest, seed


def test_from_json_rejects_unknown_version():
    with pytest.raises(ValueError, match="version"):
        FaultSchedule.from_json('{"version": 99, "seed": 0, "faults": []}')


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(round_no=0, kind="coffee_spill")


def test_spec_rejects_negative_round():
    with pytest.raises(ValueError, match="round_no"):
        FaultSpec(round_no=-1, kind=FaultKind.DISCONNECT)


def test_generate_validates_arguments():
    with pytest.raises(ValueError, match="intensity"):
        FaultSchedule.generate(seed=0, rounds=4, intensity=1.5)
    with pytest.raises(ValueError, match="rounds"):
        FaultSchedule.generate(seed=0, rounds=-1)
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSchedule.generate(seed=0, rounds=4, kinds=("bogus",))


def test_kind_counts_sum_to_schedule_length():
    schedule = FaultSchedule.generate(seed=13, rounds=50)
    assert sum(schedule.kind_counts().values()) == len(schedule.faults)
    assert set(schedule.kind_counts()) <= {kind.value for kind in FaultKind}


def test_describe_names_every_fault():
    schedule = FaultSchedule.generate(seed=4, rounds=12)
    text = schedule.describe()
    assert f"seed={schedule.seed}" in text
    for fault in schedule.faults:
        assert fault.kind.value in text
