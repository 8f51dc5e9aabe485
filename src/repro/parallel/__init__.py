"""Deterministic process-pool execution for sweep-shaped work.

The paper's evaluation is dominated by *embarrassingly parallel* sweeps:
hundreds of fingerprint pairs per machine (Figures 1/2/5), independent
(machine, rate, link) cells (Figures 5/7), and per-migration traffic
computations in the VDI replay (Figure 8).  :func:`pmap` fans those
shards across worker processes with three hard guarantees:

* **Determinism** — results are merged in submission order and every
  shard carries its own seed/namespace in its payload, never one
  derived from worker identity, so ``workers=4`` is byte-identical to
  ``workers=1``.
* **Serial fallback** — ``workers=1`` (the default) never touches
  ``multiprocessing``: the functions run inline, same stack, same
  debugger experience.
* **No inherited mutable state** — worker processes re-namespace the
  process-global content-id allocator on startup
  (:func:`repro.mem.image.isolate_worker_allocator`), so a forked
  worker can never hand out ids that alias the parent's (see the
  fork-aliasing hazard documented in :mod:`repro.mem.image`).

Worker count resolution order: explicit ``workers=`` argument, the
``REPRO_WORKERS`` environment variable, then 1 (serial).
"""

from repro.parallel.pool import (
    ENV_WORKERS,
    MIN_PARALLEL_SHARDS,
    pmap,
    resolve_workers,
)

__all__ = [
    "ENV_WORKERS",
    "MIN_PARALLEL_SHARDS",
    "pmap",
    "resolve_workers",
]
