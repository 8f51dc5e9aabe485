#!/usr/bin/env python3
"""Fleet-scale consolidation with checkpoint recycling.

Two acts:

1. Run a bursty 8-VM fleet through the Verma-style threshold
   consolidation policy (§2.2) for three simulated days, once per
   migration strategy, and compare the aggregate traffic.
2. Show the follow-the-sun pattern (§2.2): the whole fleet flips
   between two sites every 12 hours, and every return trip recycles the
   checkpoint left behind.

Run:  python examples/consolidation_fleet.py
"""

import numpy as np

from repro.cluster import (
    DatacenterSimulator,
    FollowTheSun,
    ThresholdConsolidation,
    build_fleet,
)
from repro.core import get_strategy
from repro.net import LAN_1GBE, WAN_CLOUDNET
from repro.storage import SSD_INTEL330

MIB = 2**20


def act_one_threshold_consolidation() -> None:
    print("=== Act 1: threshold consolidation, 8 VMs, 3 days ===\n")
    for name in ("qemu", "dedup", "miyakodori+dedup", "vecycle+dedup"):
        fleet, hosts = build_fleet(8, 64 * MIB, num_home_hosts=4, seed=21)
        simulator = DatacenterSimulator(
            fleet, hosts, ThresholdConsolidation(),
            get_strategy(name), LAN_1GBE, seed=21, disk=SSD_INTEL330,
        )
        print("  " + simulator.run(3 * 48).summary())


def act_two_follow_the_sun() -> None:
    print("\n=== Act 2: follow-the-sun between two sites (WAN) ===\n")
    fleet, _ = build_fleet(4, 64 * MIB, num_home_hosts=1, seed=5)
    for member in fleet:
        member.home_host = "site-east"
        member.host = "site-east"
    simulator = DatacenterSimulator(
        fleet, ["site-east", "site-west"], FollowTheSun(period_epochs=24),
        get_strategy("vecycle+dedup"), WAN_CLOUDNET, seed=5, disk=SSD_INTEL330,
    )
    report = simulator.run(4 * 48)  # four days = 8 site flips
    print("  " + report.summary())
    first_flip = report.migrations[:4]
    later_flips = report.migrations[8:]
    print(
        f"  first flip moved {sum(m.tx_bytes for m in first_flip) / MIB:7.1f} MiB; "
        f"later flips average "
        f"{np.mean([m.tx_bytes for m in later_flips]) / MIB:7.1f} MiB per VM"
    )


if __name__ == "__main__":
    act_one_threshold_consolidation()
    act_two_follow_the_sun()
