"""Unit tests for consolidation policies."""

import pytest

from repro.cluster.policies import (
    FollowTheSun,
    Move,
    ThresholdConsolidation,
    VmStatus,
)


def status(vm_id="vm1", host="host-0", home="host-0", active=False):
    return VmStatus(vm_id=vm_id, host=host, home_host=home, active=active)


class TestThresholdConsolidation:
    def test_idle_vm_consolidated_after_streak(self):
        policy = ThresholdConsolidation(min_idle_epochs=2)
        fleet = [status(active=False)]
        assert policy.decide(fleet, 0) == []  # streak 1: not yet
        moves = policy.decide(fleet, 1)  # streak 2: go
        assert moves == [Move(vm_id="vm1", destination="consolidation-server")]

    def test_active_vm_on_server_sent_home(self):
        policy = ThresholdConsolidation()
        fleet = [status(host="consolidation-server", active=True)]
        assert policy.decide(fleet, 0) == [Move(vm_id="vm1", destination="host-0")]

    def test_active_vm_at_home_stays(self):
        policy = ThresholdConsolidation()
        assert policy.decide([status(active=True)], 0) == []

    def test_activity_resets_streak(self):
        policy = ThresholdConsolidation(min_idle_epochs=2)
        idle = [status(active=False)]
        policy.decide(idle, 0)
        policy.decide([status(active=True)], 1)  # streak reset
        assert policy.decide(idle, 2) == []  # streak 1 again
        assert len(policy.decide(idle, 3)) == 1

    def test_already_consolidated_idle_vm_stays(self):
        policy = ThresholdConsolidation(min_idle_epochs=1)
        fleet = [status(host="consolidation-server", active=False)]
        assert policy.decide(fleet, 0) == []

    def test_independent_vms(self):
        policy = ThresholdConsolidation(min_idle_epochs=1)
        fleet = [
            status(vm_id="a", active=False),
            status(vm_id="b", active=True),
        ]
        moves = policy.decide(fleet, 0)
        assert moves == [Move(vm_id="a", destination="consolidation-server")]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ThresholdConsolidation(min_idle_epochs=0)

    def test_idle_streak_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            ThresholdConsolidation(_idle_streak={"vm1": 5})
        assert "_idle_streak" not in repr(ThresholdConsolidation())


class TestFollowTheSun:
    def test_site_flips_each_period(self):
        policy = FollowTheSun(period_epochs=4)
        assert policy.active_site(0) == "site-east"
        assert policy.active_site(3) == "site-east"
        assert policy.active_site(4) == "site-west"
        assert policy.active_site(8) == "site-east"

    def test_everyone_moves_to_active_site(self):
        policy = FollowTheSun(period_epochs=1)
        fleet = [
            status(vm_id="a", host="site-east"),
            status(vm_id="b", host="site-west"),
        ]
        moves = policy.decide(fleet, 1)  # active site is west
        assert moves == [Move(vm_id="a", destination="site-west")]

    def test_no_moves_when_everyone_in_place(self):
        policy = FollowTheSun(period_epochs=1)
        fleet = [status(host="site-west")]
        assert policy.decide(fleet, 1) == []

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            FollowTheSun(period_epochs=0)
        with pytest.raises(ValueError):
            FollowTheSun(sites=("x", "x"))
