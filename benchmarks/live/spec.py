"""The benchmark's declared metrics, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single list of
workloads, metric names, units, directions and regression bounds;
``run`` checks its output against it and ``compare`` takes its bounds
from it.  Two end-to-end metrics of the report cannot be declared there
— its format wants every end-to-end metric non-zero on every workload —
so their bounds live here: ``failed_fraction`` (always 0 on a healthy
run; the result line carries it as ``failed``/``attempted``) and
``restart_recover_s`` (``durable_half`` only, null elsewhere).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


REPORT_ONLY = (
    Metric("failed_fraction", "fraction", "lower", 0.0),
    Metric("restart_recover_s", "s", "lower", 0.10),
)


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: Dict[str, str]
    end_to_end: List[Metric]
    per_layer: List[Metric]

    @property
    def report_metrics(self) -> List[Metric]:
        """Every end-to-end metric of the report, declared or report-only."""
        return list(self.end_to_end) + list(REPORT_ONLY)


def load_spec(path: Path = SPEC_PATH) -> Spec:
    raw = json.loads(path.read_text())
    return Spec(
        run_seconds=int(raw["run_seconds"]),
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end=[Metric(**m) for m in raw["end_to_end"]],
        per_layer=[Metric(**m) for m in raw["per_layer"]],
    )
