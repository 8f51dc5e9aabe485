"""One command for the live-path benchmark.

Two forms, one program:

* ``python3 benchmarks/live/run.py --workload W --seed N --seconds T
  --trace 0|1`` runs workload ``W`` in this process and prints one
  result object as the last line of standard output — the form
  ``BENCHMARK.json``'s ``command`` uses.  ``--trace 0`` gives the
  end-to-end metrics (tracing off), ``--trace 1`` the per-layer ones and
  ``trace-<W>.json``.
* ``PYTHONPATH=src python -m benchmarks.live.run --seed S [--workload W]
  [--trace] [--quick] --out FILE`` runs every workload (or ``W``), each
  in its own interpreter process, prints every metric by name with its
  unit and writes the report to ``FILE``.

Either form exits non-zero if any migration's output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

DETAIL_PREFIX = "DETAIL "
DEFAULT_OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 600


# --- statistics -------------------------------------------------------------


def lower_quartile(values: Sequence[float]) -> float:
    """The timing statistic of every end-to-end metric.

    On a shared guest interference only ever slows a sample, and slows
    runs of them for minutes: over six runs in a busy quarter-hour the
    sample medians of ``idle_return`` spread by 25% of their median,
    the lower quartiles by 14% (quiet: 2% and 4%).  The median and the
    tail stay in the report's ``wall_s``.
    """
    ordered = sorted(values)
    return ordered[0] if len(ordered) < 2 else statistics.quantiles(ordered, n=4)[0]


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, extremes and the highest percentile the sample
    supports (at least ten samples beyond it), with the count stated."""
    ordered = sorted(values)
    summary: Dict[str, Any] = {
        "n": len(ordered),
        "min": ordered[0],
        "median": statistics.median(ordered),
        "max": ordered[-1],
    }
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        summary.update(q1=q1, q3=q3)
    for percent in (99, 95, 90):
        beyond = int(len(ordered) * (100 - percent) / 100)
        if beyond >= 10:
            summary["tail"] = {
                "percentile": percent,
                "value": ordered[len(ordered) - beyond - 1],
                "beyond": beyond,
            }
            break
    return summary


# --- one workload, in this process -----------------------------------------


def run_end_to_end(
    workload, seed: int, corrupt: bool, import_s: float
) -> Dict[str, Any]:
    """The untraced run: warm up, time every sample, check every output."""
    from benchmarks.live import workloads as wl

    rig = wl.make_rig(workload, seed, corrupt_expectation=corrupt)
    problems: List[str] = []
    try:
        if isinstance(workload, wl.Fleet):
            warm = rig.warm_up()
            timed = [rig.hop() for _ in range(workload.samples)]
            problems.extend(rig.audit())
        else:
            warm = [rig.sample(i) for i in range(workload.warmup)]
            timed = [
                rig.sample(workload.warmup + i) for i in range(workload.samples)
            ]
    finally:
        rig.close()

    attempted = len(warm) + len(timed)
    wrong = [s for s in warm + timed if s.problems]
    for sample in wrong:
        problems.extend(sample.problems)
    # A dirty fleet audit has no single hop to blame; it fails the run.
    failed = max(len(wrong), 1) if problems else 0

    guest_bytes = timed[0].guest_bytes
    walls = [s.wall_s for s in timed]
    restarts = [s.restart_s for s in timed if s.restart_s is not None]
    metrics = {
        "guest_mibps": guest_bytes / wl.MIB / lower_quartile(walls),
        "cpu_s_per_guest_gib": lower_quartile(
            [s.cpu_s / (s.guest_bytes / wl.GIB) for s in timed]
        ),
        "wire_bytes_per_guest_byte": sum(s.wire_bytes for s in timed)
        / sum(s.guest_bytes for s in timed),
        "failed_fraction": failed / attempted,
        "restart_recover_s": lower_quartile(restarts) if restarts else None,
        # Everything outside the timed samples that prepares them:
        # imports, synthesis, checkpoint install, warm-up migrations.
        "setup_s": import_s + rig.setup.seconds + sum(s.wall_s for s in warm),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "samples": len(timed),
            "warmup": len(warm),
            "guest_mib_per_sample": guest_bytes / wl.MIB,
            "state_fs": rig.state_fs,
            "wall_s": summarize(walls),
            "restart_s": summarize(restarts) if restarts else None,
            "problems": problems[:10],
        },
    }


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process, threads included, on one CPU; returns which.

    ``durable_half`` hops to a worker thread per segment write
    (``asyncio.to_thread``).  Left to roam a 2-vCPU guest, each hop is a
    cross-vCPU wake-up whose cost follows the neighbours' load: the same
    sample took 1.0 s in one quarter-hour and 2.2-3.2 s in the next,
    CPU time doubling with it, while pinned it stays at 1.1-1.2 s
    throughout.  The single-threaded workloads read the same either
    way.  The price: a change that wins by using a second core will not
    show here until a later change to the benchmark lifts the pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(args: argparse.Namespace, spec) -> int:
    """Run ``args.workload`` here; print its metrics and the result line."""
    pinned_cpu = pin_to_one_cpu()
    import_started = time.perf_counter()
    try:
        from benchmarks.live import workloads as wl
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_started

    scale = args.seconds / spec.run_seconds
    workload = wl.sized(wl.WORKLOADS[args.workload], scale, args.quick)
    if args.trace:
        from benchmarks.live import probes

        out_dir = Path(args.out_dir)
        result = probes.run_traced(
            workload, args.seed, args.quick,
            out_dir / f"trace-{workload.name}.json",
        )
        declared = spec.per_layer
    else:
        result = run_end_to_end(
            workload, args.seed, args.corrupt_expectation, import_s
        )
        declared = spec.report_metrics

    correct = result["failed"] == 0
    rows = {}
    for metric in declared:
        value = result["metrics"].get(metric.name)
        rows[metric.name] = {"value": value, "unit": metric.unit}
        note = result.get("notes", {}).get(metric.name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload.name:<15} {metric.name:<40} {shown:>12} {metric.unit}"
              + (f"   # {note}" if note else ""))
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "metrics": rows,
        "notes": result.get("notes", {}),
        **result["detail"],
    }
    print(DETAIL_PREFIX + json.dumps(detail))
    # The result line carries the metrics BENCHMARK.json declares for
    # this mode, nothing else; failures travel as failed/attempted.
    line_metrics = spec.per_layer if args.trace else spec.end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: rows[m.name] for m in line_metrics},
    }))
    return 0 if correct else 1


# --- every workload, each in its own interpreter ----------------------------


def run_child(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out-dir", args.out_dir,
    ]
    if args.quick:
        command.append("--quick")
    if args.corrupt_expectation:
        command.append("--corrupt-expectation")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    lines = done.stdout.splitlines()
    for line in lines:
        if not line.startswith((DETAIL_PREFIX, "{")):
            print(line)
    detail = next(
        (json.loads(line[len(DETAIL_PREFIX):]) for line in lines
         if line.startswith(DETAIL_PREFIX)),
        None,
    )
    if detail is None:
        return {"workload": workload, "trace": bool(trace), "crashed": True,
                "exit_status": done.returncode}
    result = json.loads(lines[-1])
    detail.update(
        correct=result["correct"], attempted=result["attempted"],
        failed=result["failed"], exit_status=done.returncode,
    )
    return detail


def run_suite(args: argparse.Namespace, spec) -> int:
    names = [args.workload] if args.workload else list(spec.workloads)
    report: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = {"end_to_end": run_child(args, name, 0)}
        if args.trace:
            entry["per_layer"] = run_child(args, name, 1)
        report["workloads"][name] = entry
        ok = ok and all(
            part.get("exit_status") == 0 and part.get("correct")
            for part in entry.values()
        )
    report["ok"] = ok
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"report written to {out}")
    print("all outputs correct" if ok else "SOME OUTPUT WAS WRONG OR A RUN CRASHED")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    from benchmarks.live.spec import load_spec

    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec.run_seconds),
        help="nominal timed length of a run; sample counts scale with it "
             "(default: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="per-layer probes and trace-<workload>.json",
    )
    parser.add_argument("--quick", action="store_true",
                        help="8 MiB VMs, 3 samples, 30 hops: a smoke test")
    parser.add_argument("--out", help="write the report of all runs here")
    parser.add_argument("--out-dir", default=DEFAULT_OUT_DIR,
                        help="where trace-<workload>.json goes")
    parser.add_argument("--corrupt-expectation", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload and not args.out:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
