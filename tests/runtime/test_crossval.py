"""Runtime-vs-analytic cross-validation: every strategy, on a return and a first visit."""

from dataclasses import replace

import pytest

from repro.core.strategies import available_strategies, get_strategy
from repro.runtime import MigrationError, idle_vm_scenario, run_cross_validation


def scenario_for(name, first_visit=False):
    scenario = idle_vm_scenario(
        size_mib=8, updates_percent=2.0, strategy=get_strategy(name)
    )
    # A first visit: the destination holds no checkpoint for the VM.
    return replace(scenario, checkpoint=None) if first_visit else scenario


def assert_agrees(result):
    assert result.runtime.outcome == "completed"
    # Payload bytes agree EXACTLY: data frames reproduce the analytic
    # message layout byte for byte.
    assert result.payload_delta_bytes == 0
    assert result.runtime.messages == result.analytic.messages
    # So do announce bytes: both paths size the framed announce alike.
    assert result.announce_delta_bytes == 0
    assert result.within(), result.report()


@pytest.mark.parametrize("name", available_strategies())
def test_every_strategy_validates_within_two_percent(name):
    assert_agrees(run_cross_validation(scenario_for(name)))


@pytest.mark.parametrize("name", available_strategies())
def test_every_strategy_validates_on_a_first_visit(name):
    scenario = scenario_for(name, first_visit=True)
    if scenario.strategy.method.uses_dirty_tracking:
        # The one difference the model does not share: the source has no
        # dirty set against a checkpoint that does not exist.
        with pytest.raises(MigrationError, match="no-checkpoint"):
            run_cross_validation(scenario)
        return
    result = run_cross_validation(scenario)
    assert_agrees(result)
    assert result.runtime.pages_checksum_only == 0
    if scenario.strategy.method.uses_hashes:
        # The daemon announces its empty digest set; the model charges it.
        wire = scenario.strategy.wire
        assert result.runtime.announce_bytes == wire.announce_frame_bytes(0)


def test_ping_pong_shortcut_charges_no_announce_on_either_path():
    scenario = idle_vm_scenario(size_mib=8, strategy=get_strategy("vecycle"))
    result = run_cross_validation(scenario, announce_known=True)
    assert result.runtime.announce_bytes == 0
    assert result.analytic.announce_bytes == 0
    assert result.payload_delta_bytes == 0
    assert result.within(), result.report()


def test_transfer_set_composition_is_reported_identically():
    scenario = idle_vm_scenario(size_mib=8, strategy=get_strategy("vecycle+dedup"))
    result = run_cross_validation(scenario)
    assert result.runtime.pages_full == result.transfer_set.full_pages
    assert result.runtime.pages_ref == result.transfer_set.ref_pages
    assert result.runtime.pages_checksum_only == result.transfer_set.checksum_only_pages
    assert result.runtime.pages_skipped == result.transfer_set.skipped_pages


def test_scenario_validates_inputs():
    with pytest.raises(ValueError, match="updates_percent"):
        idle_vm_scenario(updates_percent=150.0)


def test_control_frames_are_bounded_in_bytes_whatever_the_migration_size():
    # Nothing to send: the model predicts 0 B, the runtime still spends
    # its few hundred bytes of HELLO/READY/ROUND/COMPLETE/RESULT.
    scenario = idle_vm_scenario(
        size_mib=1, updates_percent=0.0, strategy=get_strategy("miyakodori")
    )
    result = run_cross_validation(scenario)
    assert result.analytic.total_bytes == 0 < result.runtime.control_bytes
    assert result.within(), result.report()
    result.runtime.control_bytes = result.control_bound_bytes + 1
    assert not result.within()
