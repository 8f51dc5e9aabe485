"""Runtime-vs-analytic cross-validation (the ISSUE acceptance check)."""

import pytest

from repro.core.protocol import ANNOUNCE_FRAME_OVERHEAD
from repro.core.strategies import available_strategies, get_strategy
from repro.obs.metrics import get_registry
from repro.runtime import idle_vm_scenario, run_cross_validation


@pytest.mark.parametrize("name", available_strategies())
def test_every_strategy_validates_within_two_percent(name):
    scenario = idle_vm_scenario(
        size_mib=8, updates_percent=2.0, strategy=get_strategy(name)
    )
    result = run_cross_validation(scenario)
    assert result.runtime.outcome == "completed"
    # Payload bytes agree EXACTLY: data frames reproduce the analytic
    # message layout byte for byte.
    assert result.payload_delta_bytes == 0
    assert result.runtime.messages == result.analytic.messages
    assert result.within(tolerance=0.02), result.report()


def test_announce_differs_by_exactly_the_frame_overhead():
    scenario = idle_vm_scenario(size_mib=8, strategy=get_strategy("vecycle"))
    result = run_cross_validation(scenario)
    assert result.announce_delta_bytes == ANNOUNCE_FRAME_OVERHEAD


def test_ping_pong_shortcut_charges_no_announce_on_either_path():
    scenario = idle_vm_scenario(size_mib=8, strategy=get_strategy("vecycle"))
    skipped = get_registry().counter("daemon.announce.skipped").value
    result = run_cross_validation(scenario, announce_known=True)
    # The daemon verified the seeded generation before skipping.
    assert get_registry().counter("daemon.announce.skipped").value == skipped + 1
    assert result.runtime.announce_bytes == 0
    assert result.analytic.announce_bytes == 0
    assert result.payload_delta_bytes == 0
    assert result.within(tolerance=0.02), result.report()


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
