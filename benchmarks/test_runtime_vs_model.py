"""Live runtime versus the analytic model on the Figure 6 best case.

The idle-VM best case (Fig. 6) is the scenario the paper leads with: a
VM returns to a host that kept its checkpoint and almost every page is
content the destination already has.  Here the *live* asyncio runtime
executes that scenario over a localhost socket and the measured traffic
is held against the analytic prediction with ``within()``: payload and
announce bytes and message counts must match exactly, and the one
term the model does not charge, the runtime's control frames, must stay
within ``CONTROL_BYTES_PER_CONNECTION`` per connection.

Scale note: the VM is 64 MiB rather than gigabytes — both accounts are
linear in page count, so the *agreement* between them is size-invariant
while the benchmark stays seconds, not minutes.
"""

import pytest

from repro.core.strategies import get_strategy
from repro.net.link import WAN_CLOUDNET
from repro.runtime import idle_vm_scenario, run_cross_validation
from repro.runtime.source import RuntimeConfig

from benchmarks.conftest import once

SIZE_MIB = 64
# Fig. 6's idle VM stays ~99.9% similar across the 30-minute gap; a few
# background daemons keep writing (§4.4).
UPDATES_PERCENT = 0.1


def validate(strategy_name: str, announce_known: bool = False):
    scenario = idle_vm_scenario(
        size_mib=SIZE_MIB,
        updates_percent=UPDATES_PERCENT,
        strategy=get_strategy(strategy_name),
    )
    return run_cross_validation(
        scenario, config=RuntimeConfig(time_scale=0.0), announce_known=announce_known
    )


def test_runtime_matches_model_qemu_baseline(benchmark):
    result = once(benchmark, validate, "qemu")
    print("\n" + result.report())
    assert result.runtime.outcome == "completed"
    assert result.payload_delta_bytes == 0
    assert result.within(), result.report()
    # The baseline moves every page: 64 MiB of pages plus headers.
    assert result.runtime.payload_bytes > SIZE_MIB * 2**20


def test_runtime_matches_model_vecycle_best_case(benchmark):
    result = once(benchmark, validate, "vecycle")
    print("\n" + result.report())
    assert result.runtime.outcome == "completed"
    # Measured traffic agrees with the analytic prediction: payload
    # exactly, control frames within their bound.
    assert result.payload_delta_bytes == 0
    assert result.runtime.messages == result.analytic.messages
    assert result.within(), result.report()


def test_runtime_reproduces_fig6_traffic_reduction():
    """The paper's headline: ~2 orders of magnitude less traffic."""
    qemu = validate("qemu")
    vecycle = validate("vecycle", announce_known=True)  # ping-pong, like §4.4
    reduction = 1 - vecycle.runtime.total_bytes / qemu.runtime.total_bytes
    assert reduction > 0.95, reduction


def test_runtime_modelled_wan_time_tracks_analytic_transfer_time():
    """The shaped stream's modelled clock equals the link model's."""
    scenario = idle_vm_scenario(
        size_mib=16,
        updates_percent=UPDATES_PERCENT,
        strategy=get_strategy("qemu"),
        link=WAN_CLOUDNET,
    )
    result = run_cross_validation(scenario, config=RuntimeConfig(time_scale=0.0))
    sent = result.runtime.payload_bytes + result.runtime.control_bytes
    expected = WAN_CLOUDNET.transfer_time(sent)
    assert result.runtime.modelled_time_s == pytest.approx(expected, rel=0.01)
