"""Per-pair traffic comparison of the reduction methods (Figure 5).

Section 4.3: for every fingerprint pair of a machine, compute how many
pages each technique would transfer if the earlier fingerprint were the
checkpoint at the destination and the later one the VM's state at
migration time.  The per-slot rule is not restated here: every fraction
is :func:`repro.core.transfer.slot_kinds`, counted.  Figure 5 reports
(left) the average fraction of baseline traffic per method for Server A
and (center/right) CDFs of how much content-based redundancy elimination
+ dedup reduces traffic relative to dirty tracking + dedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import ChecksumIndex
from repro.core.fingerprint import Fingerprint
from repro.core.transfer import Method, PAPER_METHODS, TransferSet, slot_kinds
from repro.parallel import pmap, resolve_workers
from repro.traces.generate import Trace


@dataclass(frozen=True)
class MethodComparison:
    """Per-pair page-transfer fractions for one machine.

    Attributes:
        machine: Machine display name.
        methods: The evaluated methods.
        fractions: ``fractions[method]`` is an array with one entry per
            evaluated fingerprint pair: full pages transferred divided
            by total pages (fraction of baseline traffic).
    """

    machine: str
    methods: tuple[Method, ...]
    fractions: Dict[Method, np.ndarray]

    @property
    def num_pairs(self) -> int:
        first = next(iter(self.fractions.values()))
        return int(first.shape[0])

    def mean_fraction(self, method: Method) -> float:
        """Figure 5 (left): average fraction of baseline traffic."""
        return float(self.fractions[method].mean())

    def reduction_over(
        self,
        method: Method = Method.HASHES_DEDUP,
        baseline: Method = Method.DIRTY_DEDUP,
    ) -> np.ndarray:
        """Per-pair percentage reduction of ``method`` vs ``baseline``.

        Figure 5 (center/right) plots the CDF of this quantity with
        ``hashes+dedup`` against ``dirty+dedup``.  Pairs where the
        baseline transfers nothing are reported as 0% reduction.
        """
        ours = self.fractions[method]
        theirs = self.fractions[baseline]
        with np.errstate(divide="ignore", invalid="ignore"):
            reduction = np.where(theirs > 0, (theirs - ours) / theirs * 100.0, 0.0)
        return reduction


def pair_fractions(
    current_hashes: np.ndarray,
    checkpoint_hashes: Optional[np.ndarray],
    checkpoint_index: Optional[ChecksumIndex],
    methods: Sequence[Method],
) -> Dict[Method, float]:
    """Per-pair full-page fractions for all requested methods.

    The building block shared by the Figure 5 comparison and the VDI
    replay: given the current state's hashes and a checkpoint's hashes
    plus its index, return full-page fractions per method — each one
    :func:`repro.core.transfer.slot_kinds`' answer, counted.  Pass
    ``checkpoint_index=None`` when no checkpoint exists anywhere (the
    VDI replay's first migration): nothing is then at the destination
    and every slot is a candidate, so each method degrades to its
    dedup/full behaviour.
    """
    n = current_hashes.shape[0]
    # The kernel's two inputs are computed at most once per pair, and
    # only if a requested method consumes them — the VDI replay
    # evaluates four methods per migration against the same pair.
    member = dirty = None
    if any(method.uses_hashes for method in methods):
        member = (
            np.zeros(n, dtype=bool)
            if checkpoint_index is None
            else checkpoint_index.contains_many(current_hashes)
        )
    if any(method.uses_dirty_tracking for method in methods):
        dirty = (
            np.ones(n, dtype=bool)
            if checkpoint_index is None
            else current_hashes != checkpoint_hashes
        )
    return {
        method: TransferSet.from_kinds(
            method, *slot_kinds(method, current_hashes, member, dirty)
        ).page_fraction
        for method in methods
    }


def _method_fractions_shard(
    payload: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Tuple[Method, ...]],
) -> np.ndarray:
    """Worker task for :func:`compare_methods_over_trace`.

    ``payload`` carries only the fingerprints this chunk references
    (packed into one array) plus chunk-local pair indices.  Checksum
    indexes are rebuilt per chunk; contiguous chunks keep each earlier
    fingerprint inside a single chunk, so the total index-build work
    matches the serial path.
    """
    packed, offsets, pair_a, pair_b, methods = payload
    indexes: Dict[int, ChecksumIndex] = {}
    out = np.empty((len(methods), pair_a.shape[0]))
    for i in range(pair_a.shape[0]):
        a, b = int(pair_a[i]), int(pair_b[i])
        earlier = packed[offsets[a] : offsets[a + 1]]
        later = packed[offsets[b] : offsets[b + 1]]
        if a not in indexes:
            indexes[a] = ChecksumIndex(Fingerprint(hashes=earlier))
        per_method = pair_fractions(later, earlier, indexes[a], methods)
        for m, method in enumerate(methods):
            out[m, i] = per_method[method]
    return out


def compare_methods_over_trace(
    trace: Trace,
    methods: tuple[Method, ...] = PAPER_METHODS,
    max_pairs: Optional[int] = None,
    min_delta_hours: float = 0.25,
    max_delta_hours: Optional[float] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> MethodComparison:
    """Evaluate every method on (all or sampled) fingerprint pairs.

    Args:
        trace: The machine's fingerprint stream.
        methods: Methods to evaluate (defaults to the paper's five).
        max_pairs: Optional subsample size; None evaluates all pairs
            like the paper (quadratic in trace length).
        min_delta_hours / max_delta_hours: Pair time-delta filter.
        seed: RNG seed for the subsampling.
        workers: Worker processes to shard the pair sweep across;
            byte-identical results at any worker count.
    """
    prints = trace.fingerprints
    if len(prints) < 2:
        raise ValueError("trace needs at least two fingerprints")
    pairs = []
    for a in range(len(prints)):
        for b in range(a + 1, len(prints)):
            delta_h = (prints[b].timestamp - prints[a].timestamp) / 3600.0
            if delta_h < min_delta_hours:
                continue
            if max_delta_hours is not None and delta_h > max_delta_hours:
                break
            pairs.append((a, b))
    if not pairs:
        raise ValueError("no fingerprint pairs satisfy the delta filter")
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(chosen)]

    methods = tuple(methods)
    resolved = resolve_workers(workers)
    if resolved == 1 or len(pairs) < 4 * resolved:
        indexes: Dict[int, ChecksumIndex] = {}
        fractions = {method: np.empty(len(pairs)) for method in methods}
        for i, (a, b) in enumerate(pairs):
            if a not in indexes:
                indexes[a] = ChecksumIndex(prints[a])
            per_method = pair_fractions(
                prints[b].hashes, prints[a].hashes, indexes[a], methods
            )
            for method in methods:
                fractions[method][i] = per_method[method]
        return MethodComparison(
            machine=trace.machine, methods=methods, fractions=fractions
        )

    # Shard the pair list into contiguous chunks, one per worker; each
    # shard ships only the fingerprints it references (remapped to
    # shard-local indices) so payload size tracks the chunk, not the
    # whole trace.
    shards = []
    for chunk in np.array_split(np.arange(len(pairs)), resolved):
        if chunk.shape[0] == 0:
            continue
        chunk_pairs = [pairs[i] for i in chunk]
        used = sorted({index for pair in chunk_pairs for index in pair})
        local = {fp_index: i for i, fp_index in enumerate(used)}
        hashes = [prints[fp_index].hashes for fp_index in used]
        offsets = np.zeros(len(used) + 1, dtype=np.int64)
        np.cumsum([h.shape[0] for h in hashes], out=offsets[1:])
        packed = np.concatenate(hashes)
        pair_a = np.asarray([local[a] for a, _ in chunk_pairs], dtype=np.int64)
        pair_b = np.asarray([local[b] for _, b in chunk_pairs], dtype=np.int64)
        shards.append((packed, offsets, pair_a, pair_b, methods))
    columns = pmap(_method_fractions_shard, shards, workers=resolved)
    merged = np.concatenate(columns, axis=1)
    fractions = {method: merged[m].copy() for m, method in enumerate(methods)}
    return MethodComparison(
        machine=trace.machine, methods=methods, fractions=fractions
    )


def cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative probabilities)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        return values, values
    probabilities = np.arange(1, values.size + 1) / values.size
    return values, probabilities
