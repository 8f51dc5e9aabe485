#!/usr/bin/env python3
"""Virtual-desktop consolidation — the paper's §4.6 scenario, two ways.

Part 1 replays the 19-day desktop trace analytically (like the paper's
Figure 8): 26 scheduled migrations between a workstation and a
consolidation server, comparing full copies, sender-side dedup, dirty
tracking + dedup, and VeCycle.

Part 2 runs the same pattern through the model's hosts: checkpoints
stored on each side, §3.2's announce rule, pre-copy rounds, the lot —
for one simulated week.

Run:  python examples/vdi_consolidation.py
"""

import numpy as np

from repro import Hosts, LAN_1GBE, VECYCLE_DEDUP
from repro.cluster.vdi import replay_vdi
from repro.core.transfer import Method
from repro.experiments.fig8_vdi import format_table
from repro.migration.vm import SimVM
from repro.traces.generate import generate_trace
from repro.traces.presets import DESKTOP

MIB = 2**20


def analytic_replay() -> None:
    print("=== Part 1: analytic replay of the 19-day desktop trace ===\n")
    trace = generate_trace(DESKTOP)
    result = replay_vdi(trace)
    print(format_table(result))
    saved = 1 - result.fraction_of_baseline(Method.HASHES_DEDUP)
    print(f"\nVeCycle eliminates {saved * 100:.0f}% of the migration traffic.")


def live_week() -> None:
    print("\n=== Part 2: one live week through the migration engine ===\n")
    hosts = Hosts()
    vm = SimVM(
        "desktop-vm",
        memory_bytes=512 * MIB,
        dirty_rate_pages_per_s=40,
        working_set_fraction=0.15,
        seed=3,
    )
    vm.image.write_fresh(np.arange(vm.num_pages))

    location, other = "consolidation-server", "workstation"
    total_tx = 0
    for day in range(1, 6):
        for label, busy_seconds in (("09:00", 16 * 3600), ("17:00", 8 * 3600)):
            # The VM runs at its current location until the migration.
            vm.run_for(busy_seconds if label == "17:00" else 600)
            report = hosts.migrate(vm, location, other, VECYCLE_DEDUP, LAN_1GBE)
            total_tx += report.tx_bytes
            print(
                f"day {day} {label}  {location:>20s} -> {other:<20s} "
                f"tx {report.tx_bytes / MIB:7.1f} MiB  "
                f"time {report.total_time_s:5.2f}s  "
                f"similarity {report.similarity:.2f}"
            )
            location, other = other, location

    migrations = 10
    full_equivalent = migrations * vm.memory_bytes
    print(
        f"\n{migrations} migrations moved {total_tx / MIB:.0f} MiB total — "
        f"{total_tx / full_equivalent * 100:.0f}% of what full copies "
        f"({full_equivalent / MIB:.0f} MiB) would have cost."
    )


if __name__ == "__main__":
    analytic_replay()
    live_week()
