"""Tests for the datacenter consolidation simulator."""

import pytest

from repro.cluster.policies import FollowTheSun, ThresholdConsolidation
from repro.cluster.simulator import (
    DatacenterSimulator,
    FleetVm,
    build_fleet,
)
from repro.core.strategies import QEMU, VECYCLE
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE

MIB = 2**20


def small_sim(strategy, seed=3, num_vms=3, epochs_policy=None):
    fleet, hosts = build_fleet(num_vms, 16 * MIB, seed=seed)
    policy = epochs_policy or ThresholdConsolidation()
    return DatacenterSimulator(fleet, hosts, policy, strategy, LAN_1GBE, seed=seed)


class TestBuildFleet:
    def test_fleet_shape(self):
        fleet, hosts = build_fleet(5, 16 * MIB, num_home_hosts=2)
        assert len(fleet) == 5
        assert hosts == ["host-0", "host-1", "consolidation-server"]
        assert {m.home_host for m in fleet} == {"host-0", "host-1"}

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_fleet(0, 16 * MIB)
        with pytest.raises(ValueError):
            build_fleet(2, 16 * MIB, num_home_hosts=0)


class TestSimulation:
    def test_consolidation_produces_migrations(self):
        report = small_sim(VECYCLE).run(48)
        assert report.num_migrations > 0
        assert report.total_tx_bytes > 0
        assert report.epochs == 48

    def test_deterministic(self):
        a = small_sim(VECYCLE).run(24)
        b = small_sim(VECYCLE).run(24)
        assert a.num_migrations == b.num_migrations
        assert a.total_tx_bytes == b.total_tx_bytes

    def test_vecycle_beats_qemu_on_aggregate_traffic(self):
        vecycle = small_sim(VECYCLE).run(48)
        qemu = small_sim(QEMU).run(48)
        # Same activity seeds → same migration schedule; VeCycle moves
        # far fewer bytes.
        assert vecycle.num_migrations == qemu.num_migrations
        assert vecycle.total_tx_bytes < 0.7 * qemu.total_tx_bytes
        assert vecycle.traffic_fraction_of_full < 0.7
        assert qemu.traffic_fraction_of_full > 0.95

    def test_follow_the_sun(self):
        fleet, _ = build_fleet(2, 16 * MIB, num_home_hosts=1, seed=9)
        hosts = ["site-east", "site-west"]
        for member in fleet:
            member.home_host = "site-east"
            member.host = "site-east"
        sim = DatacenterSimulator(
            fleet, hosts, FollowTheSun(period_epochs=6), VECYCLE, LAN_1GBE, seed=9
        )
        report = sim.run(24)
        # 24 epochs / 6-epoch period → 3 flips after the first period,
        # 2 VMs each.
        assert report.num_migrations == 6
        # Returning to a visited site recycles its checkpoint.
        later = report.migrations[2:]
        assert all(m.pages_checksum_only > 0 for m in later)

    def test_summary_string(self):
        report = small_sim(VECYCLE).run(12)
        assert "vecycle" in report.summary()

    def test_unknown_home_host_rejected(self):
        fleet, hosts = build_fleet(1, 16 * MIB)
        fleet[0].home_host = "mystery"
        fleet[0].host = "mystery"
        with pytest.raises(ValueError):
            DatacenterSimulator(
                fleet, hosts, ThresholdConsolidation(), VECYCLE, LAN_1GBE
            )

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            small_sim(VECYCLE).run(0)

    def test_fleet_vm_validation(self):
        vm = SimVM("x", 16 * MIB)
        with pytest.raises(ValueError):
            FleetVm(vm=vm, home_host="h", activation_probability=1.5)
