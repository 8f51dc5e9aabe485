"""Seed-sweep soak tests: invariants hold, runs are reproducible."""

import asyncio
from enum import Enum
from types import SimpleNamespace

import pytest

from repro.chaos import FaultKind, FaultSchedule, FaultSpec, run_soak
from repro.chaos.soak import _Soak, run_soak_async

# Seeds chosen to jointly cover every fault kind at these parameters
# (verified by the kind_counts assertions below), while staying small
# enough for CI: a handful of localhost migrations per seed.
SWEEP_SEEDS = (3, 7)
SWEEP_KW = dict(migrations=6, hosts=3, num_pages=96)


def test_seed_sweep_holds_invariants():
    covered = set()
    for seed in SWEEP_SEEDS:
        report = run_soak(seed=seed, **SWEEP_KW)
        assert report.ok, f"seed {seed}: {report.violations}"
        assert report.rounds == 6
        assert sum(report.faults_injected.values()) > 0
        covered.update(report.schedule.kind_counts())
    # The sweep must actually exercise the protocol-fault vocabulary.
    assert FaultKind.DISCONNECT in covered or FaultKind.MID_RESULT in covered


def test_same_seed_same_signature():
    a = run_soak(seed=7, **SWEEP_KW)
    b = run_soak(seed=7, **SWEEP_KW)
    assert a.ok and b.ok
    assert a.signature() == b.signature()


def test_explicit_schedule_replays_identically():
    schedule = FaultSchedule.generate(seed=7, rounds=6)
    replay = FaultSchedule.from_json(schedule.to_json())
    seeded = run_soak(seed=7, **SWEEP_KW)
    replayed = run_soak(seed=7, schedule=replay, **SWEEP_KW)
    assert seeded.signature() == replayed.signature()


def test_restart_seed_recovers_and_stays_clean():
    # Seed 11 schedules daemon kill+restart faults at these parameters;
    # the restarted daemon must recover its durable checkpoints without
    # double-counting them, and every invariant must still hold.
    report = run_soak(seed=11, migrations=8, hosts=3, num_pages=128)
    assert FaultKind.RESTART in report.schedule.kind_counts()
    assert report.restarts >= 1
    assert report.ok, report.violations


def test_vdi_schedule_smoke():
    report = run_soak(seed=1, vdi=True, days=2, hosts=3, num_pages=96)
    assert report.rounds == 4  # two commute legs per weekday
    assert report.ok, report.violations


def test_report_serializes():
    report = run_soak(seed=3, migrations=4, hosts=2, num_pages=64)
    data = report.to_dict()
    assert data["seed"] == 3
    assert len(data["rounds"]) == report.rounds
    assert data["invariants_ok"] is True
    assert isinstance(report.signature(), dict)


def test_soak_runs_inside_existing_loop():
    # The async entry point composes with callers that already own a
    # loop (the orchestrator experiments drive it this way).
    async def scenario():
        return await run_soak_async(seed=2, migrations=3, hosts=2, num_pages=64)

    report = asyncio.run(scenario())
    assert report.rounds == 3
    assert report.ok, report.violations


@pytest.mark.parametrize("kind", FaultKind, ids=lambda kind: kind.value)
def test_every_fault_kind_is_armed_and_accounted(kind):
    # Coverage by construction: a member added to FaultKind is soaked
    # here without anyone listing it.  The fault sits in round 1 so the
    # destination already hosts a checkpoint to corrupt, resume or scrub.
    # param=3 is the READY cut that borrows the ANNOUNCE tag as a
    # *plausible* applied count: the first attempt streams its round
    # before desyncing, and the executor's retry used to die in
    # MigrationMetrics.validate() (all resends, no payload).
    schedule = FaultSchedule(
        seed=5, faults=(FaultSpec(1, kind, param=3, host_index=1),)
    )
    report = run_soak(
        seed=5, schedule=schedule, migrations=2, hosts=2, num_pages=64
    )
    assert report.ok, report.violations
    assert report.faults_injected == {kind.value: 1}
    assert report.faults_skipped == 0  # it reached its fault point


def test_arming_a_kind_without_an_arm_raises(tmp_path):
    class Unarmed(str, Enum):
        COFFEE_SPILL = "coffee_spill"

    soak = _Soak(
        seed=0, events=[], schedule=FaultSchedule(seed=0, faults=()),
        hosts=2, num_pages=8, state_root=tmp_path, policy="best-checkpoint",
    )
    spec = SimpleNamespace(
        round_no=0, kind=Unarmed.COFFEE_SPILL, param=0, host_index=0
    )
    with pytest.raises(NotImplementedError, match="COFFEE_SPILL"):
        soak._arm(spec)
