"""``pmap``: chunked, ordered, deterministic process-pool mapping.

Design notes
------------

* Shards are submitted in **contiguous chunks** (about four per
  worker) to amortize pickling and process-dispatch overhead; results
  are concatenated in submission order, so the output list is always
  ``[fn(shard) for shard in shards]`` regardless of worker scheduling.
* A shard carries whatever seed or namespace it needs in its own
  payload, never one derived from the worker that runs it — the
  determinism contract that makes ``workers=N`` byte-identical to
  serial.
* Worker processes run :func:`_worker_init` on startup, which moves the
  process-global content-id allocator of :mod:`repro.mem.image` into a
  worker-private namespace.  Shard functions that build images should
  still pass explicit ``namespace=`` seeds (the trace generator does);
  the initializer is defense in depth against fork aliasing for any
  code path that falls back to the global allocator.
* ``fn`` must be picklable (a module-level function or a
  ``functools.partial`` of one); shard payloads and results travel
  through pickle, so keep them to numpy arrays and plain dataclasses.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

ENV_WORKERS = "REPRO_WORKERS"
"""Environment variable consulted when no explicit worker count is given."""

MIN_PARALLEL_SHARDS = 4
"""Below this many shards, ``pmap`` runs inline: forking a process pool
costs tens of milliseconds before the first shard executes, which a
handful of shards cannot win back.  (The fig8 replay benchmark measured
a 0.92× parallel "speedup" — slower than serial — from exactly this
overhead plus worker oversubscription.)"""

S = TypeVar("S")
R = TypeVar("R")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``REPRO_WORKERS`` env > 1.

    ``0`` (from either source) means "all visible cores".  Negative
    values raise.
    """
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError as exc:
                raise ValueError(
                    f"{ENV_WORKERS} must be an integer, got {raw!r}"
                ) from exc
        else:
            workers = 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def _worker_init() -> None:
    """Per-worker startup: isolate the global content-id allocator.

    Runs in the child process.  See the fork-aliasing hazard note in
    :mod:`repro.mem.image`: a forked child inherits the parent's
    allocator position, so two children would hand out the *same* ids
    for *different* content.  Re-namespacing by pid makes the ranges
    disjoint.  (Shard-level determinism must still come from explicit
    namespaces; pids are not reproducible.)
    """
    from repro.mem.image import isolate_worker_allocator

    isolate_worker_allocator(os.getpid())


def _run_chunk(fn: Callable[[S], R], shards: List[S]) -> List[R]:
    """Execute one contiguous chunk of shards inside a worker."""
    return [fn(shard) for shard in shards]


def pmap(
    fn: Callable[[S], R],
    shards: Sequence[S],
    workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``shards`` across worker processes, in order.

    Args:
        fn: Module-level callable (or partial of one), called as
            ``fn(shard)``.
        shards: The work items; materialized once up front.
        workers: Worker processes; ``None`` defers to ``REPRO_WORKERS``
            then 1, ``0`` means all cores, ``1`` runs serially inline.

    Returns:
        ``[fn(shard) for shard in shards]`` — always in input order,
        byte-identical across any worker count.
    """
    shards = list(shards)
    workers = resolve_workers(workers)
    # The *requested* count (argument or env) may exceed the machine:
    # more workers than cores just time-slice each other and lose to
    # serial.  Clamp to what can actually run concurrently.
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or len(shards) < MIN_PARALLEL_SHARDS:
        return _run_chunk(fn, shards)

    workers = min(workers, len(shards))
    # About four chunks per worker: amortizes pickling while keeping
    # the pool busy.
    step = max(1, math.ceil(len(shards) / (workers * 4)))
    results: List[R] = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init
    ) as executor:
        futures = [
            executor.submit(_run_chunk, fn, shards[start : start + step])
            for start in range(0, len(shards), step)
        ]
        for future in futures:
            results.extend(future.result())
    return results
