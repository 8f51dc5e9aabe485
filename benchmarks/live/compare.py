"""Compare two reports written by ``benchmarks.live.run --out``.

``python -m benchmarks.live.compare A.json B.json`` prints, for every
workload and end-to-end metric, by how much ``B`` is worse than ``A``
as a share of ``A``, next to the metric's regression bound from
``BENCHMARK.json``, and exits 1 if any is outside its bound.  ``A`` is
the parent (or the first of two sets), ``B`` the change.

``--agree`` makes the check symmetric — better by more than the bound is
outside too — which is the test that two sets of runs of one commit
agree.  When both reports ran the same seed and sizes,
``wire_bytes_per_guest_byte`` and ``failed_fraction`` must match
exactly either way: they are counts, not timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

EXACT_FOR_A_SEED = ("wire_bytes_per_guest_byte", "failed_fraction")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``.

    Negative when ``b`` is better.  Against a zero ``a`` (a failure
    fraction) the difference itself is the share.
    """
    delta = (b - a) if better == "lower" else (a - b)
    return delta / abs(a) if a else delta


def _value(report: Dict[str, Any], workload: str, metric: str) -> Optional[float]:
    run = report["workloads"].get(workload, {}).get("end_to_end", {})
    return run.get("metrics", {}).get(metric, {}).get("value")


def _spread(report: Dict[str, Any], workload: str) -> str:
    wall = report["workloads"][workload]["end_to_end"].get("wall_s") or {}
    if "q1" not in wall:
        return "n/a"
    return (
        f"q1 {wall['q1']:.4f}  median {wall['median']:.4f}  "
        f"q3 {wall['q3']:.4f} s  (n={wall['n']})"
    )


def compare(a: Dict[str, Any], b: Dict[str, Any], agree: bool, metrics) -> int:
    same_inputs = all(a.get(k) == b.get(k) for k in ("seed", "seconds", "quick"))
    outside = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            print(f"{workload}: missing from the second report")
            outside += 1
            continue
        print(f"{workload}")
        print(f"  A sample wall: {_spread(a, workload)}")
        print(f"  B sample wall: {_spread(b, workload)}")
        for metric in metrics:
            va, vb = _value(a, workload, metric.name), _value(b, workload, metric.name)
            if va is None and vb is None:
                continue
            if va is None or vb is None:
                print(f"  {metric.name:<28} present on one side only  OUTSIDE")
                outside += 1
                continue
            exact = same_inputs and metric.name in EXACT_FOR_A_SEED
            bound = 0.0 if exact else metric.bound
            change = worse_by(va, vb, metric.better)
            bad = abs(change) > bound if (agree or exact) else change > bound
            outside += bad
            print(
                f"  {metric.name:<28} {va:>12.6g} -> {vb:>12.6g} {metric.unit:<6}"
                f" worse by {change:+8.2%}  bound {bound:.0%}"
                f"{' (exact)' if exact else ''}  {'OUTSIDE' if bad else 'ok'}"
            )
    return outside


def main(argv: Optional[Sequence[str]] = None) -> int:
    from benchmarks.live.spec import load_spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the parent's (or first) report")
    parser.add_argument("b", type=Path, help="the change's (or second) report")
    parser.add_argument("--agree", action="store_true",
                        help="symmetric: the two reports must agree")
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    outside = compare(a, b, args.agree, load_spec().report_metrics)
    print(f"{outside} outside bound" if outside else "all within bounds")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
