"""The model fleet's migrations, pinned.

``golden_consolidate.json`` holds, per strategy, one row per migration
of ``vecycle consolidate --vms 4 --days 1 --seed 21`` (4 strategies ×
32 migrations): ``[tx_bytes, announce_bytes, total_time_s]``.  The seed
determines all of it, so a change to the fleet, the policy, the model's
hosts or the pre-copy model shows up here as the first row that moved.
Times are compared to 1e-9 relative, which absorbs a last-bit
difference in a vectorised ``exp`` between CPUs and nothing else.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster.simulator import DatacenterSimulator

GOLDEN = Path(__file__).with_name("golden_consolidate.json")


def test_consolidate_rows_equal_the_golden_ones(monkeypatch):
    runs = []
    run = DatacenterSimulator.run

    def recording_run(self, epochs):
        runs.append(run(self, epochs))
        return runs[-1]

    monkeypatch.setattr(DatacenterSimulator, "run", recording_run)
    assert main(["consolidate", "--vms", "4", "--days", "1", "--seed", "21"]) == 0
    want = json.loads(GOLDEN.read_text())
    assert [report.strategy for report in runs] == list(want)
    for report in runs:
        rows = [
            [m.tx_bytes, m.announce_bytes, m.total_time_s] for m in report.migrations
        ]
        assert len(rows) == len(want[report.strategy]), report.strategy
        for index, (row, pinned) in enumerate(zip(rows, want[report.strategy])):
            assert row[:2] == pinned[:2] and row[2] == pytest.approx(pinned[2], rel=1e-9), (
                f"{report.strategy} migration {index}: {row} moved from {pinned}"
            )
