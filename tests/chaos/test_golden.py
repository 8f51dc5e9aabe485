"""The four golden chaos signatures, pinned.

``golden_signatures.json`` is what ``python -m repro chaos --seeds
3,7,10,11 --migrations 8 --json`` printed when it was committed: each
seed's ``SoakReport.signature()`` plus the counts derived from it.  The
seed determines all of it, so any change to the protocol's outcomes
under these fault schedules shows up here, field by field.  CI's
"Deterministic fault sweep" step diffs the same command's output
against the file.
"""

import json
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).with_name("golden_signatures.json")


def test_the_four_golden_signatures_hold(capsys):
    assert main(["chaos", "--seeds", "3,7,10,11", "--migrations", "8", "--json"]) == 0
    printed = capsys.readouterr().out
    got, want = json.loads(printed), json.loads(GOLDEN.read_text())
    assert [report["seed"] for report in got] == [3, 7, 10, 11]
    for report, pinned in zip(got, want):
        moved = sorted(key for key in pinned if report.get(key) != pinned[key])
        assert not moved, f"seed {report['seed']}: {moved} moved"
    assert printed == GOLDEN.read_text()
