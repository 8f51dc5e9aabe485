"""Performance snapshot for the parallel execution layer.

Measures the sweeps the ``repro.parallel`` layer accelerates and writes
the numbers to ``BENCH_perf.json``:

* Figure 1 similarity binning — the pre-PR ``intersect1d`` reference
  kernel vs the vectorized sorted-unique kernel, serial and with 4
  workers, plus the assertion-backed fact that all three produce
  byte-identical bins.
* Figure 8 VDI replay — serial vs 4 workers.
* Batched page digests — one ``PageStore.digests_for`` pass over a
  duplicate-heavy slot array vs a per-slot ``digest_for`` loop.

Wall-clock parallel speedup is bounded by the machine, so the snapshot
records ``cpu_count`` next to every number: on a single-core CI runner
the honest headline is the kernel speedup (reference vs vectorized,
machine-independent work reduction), with the worker fan-out adding
real speedup only where cores exist.  Regression checking therefore
compares the *scale-free ratios*, never absolute seconds::

    python benchmarks/perf_snapshot.py --out BENCH_perf.json
    python benchmarks/perf_snapshot.py --quick --check BENCH_perf.json

``--check`` exits non-zero when a ratio regressed by more than
``--tolerance`` (default 25%) relative to the committed snapshot.  The
ratios that time a 4-worker run are compared only when both snapshots
come from the same multi-core ``cpu_count``; otherwise they are skipped
with a printed note.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.checksum import MD5  # noqa: E402
from repro.experiments import fig1_similarity, fig8_vdi  # noqa: E402
from repro.mem.pagestore import PageStore  # noqa: E402
from repro.net.link import Link  # noqa: E402
from repro.runtime.crossval import idle_vm_scenario  # noqa: E402
from repro.runtime.daemon import CheckpointDaemon  # noqa: E402
from repro.runtime.source import (  # noqa: E402
    MigrationSource,
    RuntimeConfig,
    SourceState,
)
from repro.traces.presets import SERVER_A  # noqa: E402

REFERENCE_SCALE = {"fig1_epochs": 80, "fig8_epochs": 400, "digest_pages": 4096,
                   "pipeline_mib": 16}
# The pipeline scenario keeps its full size under --quick: the overlap
# being measured needs the digest phase to dominate fixed per-migration
# costs, and the whole section still runs in a few seconds.
QUICK_SCALE = {"fig1_epochs": 40, "fig8_epochs": 160, "digest_pages": 1024,
               "pipeline_mib": 16}

# The ratios --check compares, with the direction "bigger is better".
CHECKED_RATIOS = (
    "fig1.kernel_speedup",
    "fig1.best_speedup",
    "fig8.parallel_speedup",
    "pipeline.overlap",
)

PARALLEL_RATIOS = frozenset({"fig1.best_speedup", "fig8.parallel_speedup"})
"""Checked ratios that time a 4-worker run.  What they read depends on
the cores available, so --check compares them only between snapshots
taken with the same ``cpu_count``, and never against a 1-core one
(there every parallel ratio is ~1 by construction)."""

_ANNOUNCE_WIRE_FACTOR = 1.25
"""The pipeline benchmark calibrates the destination link so the bulk
announce spends ~1.25× the source's checksum time on the wire — the
regime where transmission is the slightly-longer pole and the source's
sliced digest pass rides entirely under it."""

_PIPELINE_REPEATS = 5
"""Timed digest calibrations and migrations; the best of each is used
(standard min-of-N to shed scheduler noise on shared CI runners)."""


def _timed(fn) -> tuple[float, object]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _decay_digest(results) -> str:
    """Stable digest over every bin array of a fig1 result dict."""
    h = hashlib.sha256()
    for name in sorted(results):
        decay = results[name]
        for arr in (decay.bin_hours, decay.minimum, decay.average,
                    decay.maximum, decay.counts):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _bench_fig1(epochs: int) -> dict:
    machines = (SERVER_A,)
    reference_s, reference = _timed(
        lambda: {
            spec.name: fig1_similarity.similarity_decay(
                fig1_similarity.generate_trace(spec, num_epochs=epochs),
                max_delta_hours=24.0,
                max_pairs_per_bin=60,
                kernel="reference",
            )
            for spec in machines
        }
    )
    serial_s, serial = _timed(
        lambda: fig1_similarity.run(
            machines=machines, num_epochs=epochs, workers=1
        )
    )
    parallel_s, parallel = _timed(
        lambda: fig1_similarity.run(
            machines=machines, num_epochs=epochs, workers=4
        )
    )
    digests = {
        "reference": _decay_digest(reference),
        "serial": _decay_digest(serial),
        "parallel4": _decay_digest(parallel),
    }
    if len(set(digests.values())) != 1:
        raise AssertionError(f"fig1 outputs diverged: {digests}")
    best_s = min(serial_s, parallel_s)
    return {
        "epochs": epochs,
        "reference_kernel_s": round(reference_s, 4),
        "serial_s": round(serial_s, 4),
        "parallel4_s": round(parallel_s, 4),
        "kernel_speedup": round(reference_s / serial_s, 3),
        "best_speedup": round(reference_s / best_s, 3),
        "output_sha256": digests["serial"],
    }


def _bench_fig8(epochs: int) -> dict:
    serial_s, serial = _timed(lambda: fig8_vdi.run(num_epochs=epochs, workers=1))
    parallel_s, parallel = _timed(lambda: fig8_vdi.run(num_epochs=epochs, workers=4))
    pair = [
        (r.index, r.fingerprint_hours,
         sorted((m.value, f) for m, f in r.fractions.items()))
        for r in serial.records
    ]
    h = hashlib.sha256(json.dumps(pair).encode()).hexdigest()
    pair4 = [
        (r.index, r.fingerprint_hours,
         sorted((m.value, f) for m, f in r.fractions.items()))
        for r in parallel.records
    ]
    if hashlib.sha256(json.dumps(pair4).encode()).hexdigest() != h:
        raise AssertionError("fig8 parallel output diverged from serial")
    return {
        "epochs": epochs,
        "serial_s": round(serial_s, 4),
        "parallel4_s": round(parallel_s, 4),
        "parallel_speedup": round(serial_s / parallel_s, 3),
        "migrations": serial.num_migrations,
        "output_sha256": h,
    }


def _bench_digest(pages: int) -> dict:
    """Batched PageStore digesting: one digests_for() pass over a
    duplicate-heavy slot array versus a per-slot digest_for() loop (the
    call pattern _digest_many used before it was batched)."""
    slot_rng = np.random.default_rng(11)
    distinct = np.unique(slot_rng.integers(
        1, 2**63, size=max(pages // 8, 1), dtype=np.uint64
    ))
    slots = slot_rng.choice(distinct, size=pages)

    def per_slot_loop():
        store = PageStore()
        return [store.digest_for(int(cid), MD5) for cid in slots]

    def batched_pass():
        store = PageStore()
        return store.digests_for(slots, MD5)

    loop_s, from_loop = _timed(per_slot_loop)
    batched_s, from_batch = _timed(batched_pass)
    if [bytes(d) for d in from_loop] != [bytes(d) for d in from_batch]:
        raise AssertionError("batched digests disagree with the loop")

    return {
        "pages": pages,
        "batched_slots": int(slots.size),
        "batched_distinct": int(distinct.size),
        "per_slot_loop_s": round(loop_s, 4),
        "batched_s": round(batched_s, 4),
        "batched_speedup": round(loop_s / batched_s, 3),
    }


def _filled_store(content_ids: np.ndarray) -> PageStore:
    """A ``PageStore`` already holding the bytes of every given id, so
    no timed region pays for page synthesis (digests stay cold)."""
    distinct = np.unique(content_ids)
    store = PageStore(cache_limit=2 * int(distinct.size) + 16)
    for content_id in distinct.tolist():
        store.page_bytes(content_id)
    return store


def _bench_pipeline(size_mib: int) -> dict:
    """Idle-VM best case: how much digesting hides under the announce.

    Self-calibrating: the digest cost of the VM's distinct contents is
    measured first (pages pre-filled, digests cold), then the
    destination link's bandwidth is chosen so the §3.2 bulk announce
    spends ``_ANNOUNCE_WIRE_FACTOR`` times that long on the
    (receiver-visible, chunk-paced) wire.  ``overlap`` is the two costs
    laid end to end over the migration's wall time: a source that
    digests under the announce scores well above one that waits the
    announce out first.
    """
    scenario = idle_vm_scenario(size_mib=size_mib, updates_percent=0.0)
    strategy = scenario.strategy
    hashes = scenario.current.hashes

    def digest_time() -> float:
        store = _filled_store(hashes)
        distinct = np.unique(hashes)
        seconds, _ = _timed(lambda: store.digests_for(distinct, strategy.checksum))
        return seconds

    digest_time()  # warm the digest code path
    t_digest = min(digest_time() for _ in range(_PIPELINE_REPEATS))
    announce_bytes = strategy.wire.announce_frame_bytes(
        scenario.checkpoint.num_unique
    )
    wire_s = _ANNOUNCE_WIRE_FACTOR * t_digest
    link = Link(
        name="pipeline-bench",
        bandwidth_bps=announce_bytes * 8 / wire_s / 0.94,
        latency_s=1e-6,
    )

    async def one_migration() -> float:
        daemon = CheckpointDaemon(
            name="pipeline-bench", link=link, time_scale=1.0,
            pagestore=_filled_store(scenario.checkpoint.hashes),
        )
        async with daemon:
            daemon.install_checkpoint(
                scenario.vm_id, scenario.checkpoint, strategy.checksum
            )
            source = MigrationSource(
                SourceState(
                    vm_id=scenario.vm_id,
                    hashes=hashes,
                    pagestore=_filled_store(hashes),
                    dirty_slots=scenario.dirty_slots,
                ),
                strategy,
                config=RuntimeConfig(time_scale=0.0),
            )
            started = time.perf_counter()
            await source.migrate(daemon.host, daemon.port)
            return time.perf_counter() - started

    asyncio.run(one_migration())  # warm the stack (imports, event loop)
    migrate_s = min(asyncio.run(one_migration()) for _ in range(_PIPELINE_REPEATS))
    return {
        "size_mib": size_mib,
        "pages": scenario.num_pages,
        "cpu_count": os.cpu_count(),
        "announce_bytes": announce_bytes,
        "announce_wire_factor": _ANNOUNCE_WIRE_FACTOR,
        "digest_calibration_s": round(t_digest, 4),
        "announce_wire_s": round(wire_s, 4),
        "migrate_s": round(migrate_s, 4),
        "overlap": round((t_digest + wire_s) / migrate_s, 3),
    }


def _bench_end_to_end() -> dict:
    """Wall time of the full default-scale figure pipelines (serial).

    Absolute seconds are machine-dependent and informational only —
    they are never compared by ``--check``.  They exist so a committed
    snapshot documents what the sweeps cost on the machine it was taken
    on (compare against the pre-PR numbers in docs/performance.md).
    """
    fig1_s, _ = _timed(lambda: fig1_similarity.run(workers=1))
    fig8_s, _ = _timed(lambda: fig8_vdi.run(workers=1))
    return {
        "fig1_default_s": round(fig1_s, 4),
        "fig8_default_s": round(fig8_s, 4),
    }


def build_snapshot(quick: bool) -> dict:
    scale = QUICK_SCALE if quick else REFERENCE_SCALE
    snapshot = {
        "schema": 1,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "fig1": _bench_fig1(scale["fig1_epochs"]),
        "fig8": _bench_fig8(scale["fig8_epochs"]),
        "digest": _bench_digest(scale["digest_pages"]),
        "pipeline": _bench_pipeline(scale["pipeline_mib"]),
    }
    if not quick:
        snapshot["end_to_end"] = _bench_end_to_end()
    return snapshot


def _ratio(snapshot: dict, dotted: str) -> float:
    section, key = dotted.split(".")
    return float(snapshot[section][key])


def check_against(snapshot: dict, baseline: dict, tolerance: float) -> list[str]:
    """Scale-free regression check; returns a list of failures.

    Ratios in :data:`PARALLEL_RATIOS` are skipped, with a note on
    standard error, unless both snapshots come from the same
    multi-core ``cpu_count``.
    """
    failures = []
    cpus = (baseline.get("cpu_count"), snapshot.get("cpu_count"))
    same_cores = cpus[0] == cpus[1] and cpus[0] not in (None, 1)
    for name in CHECKED_RATIOS:
        if name in PARALLEL_RATIOS and not same_cores:
            print(
                f"SKIPPED {name}: a parallel ratio, and the baseline has "
                f"cpu_count {cpus[0]}, this snapshot {cpus[1]}",
                file=sys.stderr,
            )
            continue
        current = _ratio(snapshot, name)
        reference = _ratio(baseline, name)
        floor = reference * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{name}: {current:.3f} < {floor:.3f} "
                f"(baseline {reference:.3f}, tolerance {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale (CI smoke)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the snapshot JSON here")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare speedup ratios against a committed "
                        "snapshot and fail on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative ratio regression (default 0.25)")
    args = parser.parse_args(argv)

    snapshot = build_snapshot(quick=args.quick)
    print(json.dumps(snapshot, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_against(snapshot, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"ratios within {args.tolerance:.0%} of {args.check}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
