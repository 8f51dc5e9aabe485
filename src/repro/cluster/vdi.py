"""Virtual-desktop consolidation replay (§4.6, Figure 8).

Replays a desktop memory trace through the twice-a-weekday VDI schedule
and computes, for every migration, the traffic each technique would
generate.  The paper's analytic method is followed exactly: the
checkpoint available at a migration's destination is the VM state at the
*previous* migration (which departed that host), and the per-migration
traffic fraction comes from the fingerprint pair.  VeCycle is assumed to
keep using sender-side dedup on the residual pages, as the paper notes
("We assume that VeCycle still uses deduplication").

Headline numbers to reproduce: 26 full migrations ≈ 159 GB baseline;
sender-side dedup ≈ 86% of baseline; VeCycle ≈ 25% of baseline (and the
very first migration transfers the most, since no checkpoint exists).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.methods import pair_fractions
from repro.cluster.schedule import MigrationEvent, vdi_schedule
from repro.core.checkpoint import ChecksumIndex
from repro.core.fingerprint import Fingerprint
from repro.core.transfer import Method
from repro.obs.log import get_logger
from repro.obs.trace import NOOP_SPAN, span as _span
from repro.parallel import pmap, resolve_workers
from repro.traces.generate import Trace

log = get_logger(__name__)

VDI_METHODS = (Method.FULL, Method.DEDUP, Method.DIRTY_DEDUP, Method.HASHES_DEDUP)
"""Techniques compared in Figure 8 (VeCycle = hashes+dedup per §4.6)."""


@dataclass(frozen=True)
class VdiMigrationRecord:
    """Traffic of one scheduled migration, per method.

    ``fractions[method]`` is full-pages-transferred / total-pages — the
    "Migration traffic [% of RAM]" axis of Figure 8 (divided by 100).
    """

    index: int
    event: MigrationEvent
    fingerprint_hours: float
    fractions: Dict[Method, float]


@dataclass
class VdiResult:
    """The full replay: per-migration records plus aggregate traffic."""

    ram_bytes: int
    records: List[VdiMigrationRecord]

    @property
    def num_migrations(self) -> int:
        return len(self.records)

    def total_bytes(self, method: Method) -> float:
        """Aggregate traffic of ``method`` over all migrations."""
        return sum(r.fractions[method] for r in self.records) * self.ram_bytes

    def fraction_of_baseline(self, method: Method) -> float:
        """Aggregate traffic relative to full migrations (Figure 8)."""
        baseline = self.total_bytes(Method.FULL)
        return self.total_bytes(method) / baseline if baseline else 0.0

    def per_migration_percent(self, method: Method) -> List[float]:
        """The Figure 8 series: traffic as % of RAM per migration."""
        return [r.fractions[method] * 100.0 for r in self.records]


def fingerprint_at(trace: Trace, hours: float) -> tuple[Fingerprint, float]:
    """The trace fingerprint nearest to trace time ``hours``.

    Returns ``(fingerprint, fingerprint_hours)``.  Public because the
    live orchestrator's VDI cross-validation harness must pick the
    exact same memory snapshots the analytic replay picks.
    """
    timestamps = [fp.timestamp for fp in trace.fingerprints]
    target = hours * 3600.0
    position = bisect.bisect_left(timestamps, target)
    candidates = [
        index for index in (position - 1, position) if 0 <= index < len(timestamps)
    ]
    best = min(candidates, key=lambda index: abs(timestamps[index] - target))
    return trace.fingerprints[best], timestamps[best] / 3600.0


def _vdi_fractions_shard(
    payload: Tuple[List[np.ndarray], bool, Tuple[Method, ...]],
) -> List[Dict[Method, float]]:
    """Worker task for :func:`replay_vdi`.

    ``payload`` is a contiguous run of the schedule: the hash arrays of
    the fingerprints it touches, plus whether the first array is the
    carried-in checkpoint from the previous chunk (rather than this
    chunk's first migration).  Each fingerprint ships to at most one
    worker, so pickle traffic stays proportional to the trace.
    """
    hash_arrays, has_carry, methods = payload
    previous = hash_arrays[0] if has_carry else None
    out: List[Dict[Method, float]] = []
    for current in hash_arrays[1 if has_carry else 0 :]:
        index = None if previous is None else ChecksumIndex(Fingerprint(hashes=previous))
        out.append(pair_fractions(current, previous, index, methods))
        previous = current
    return out


def replay_vdi(
    trace: Trace,
    schedule: Optional[Sequence[MigrationEvent]] = None,
    methods: Sequence[Method] = VDI_METHODS,
    workers: Optional[int] = None,
) -> VdiResult:
    """Replay ``trace`` through the VDI schedule.

    Args:
        trace: The desktop trace (19 days in the paper's setup).
        schedule: Migration events; defaults to the §4.6 schedule
            (9 am / 5 pm on the first 13 weekdays).
        methods: Techniques to evaluate per migration.
        workers: Worker processes to shard the per-migration evaluation
            across.  Each migration only needs the fingerprint of the
            *previous* one, which is known from the schedule alone, so
            contiguous runs of migrations fan out cleanly with
            byte-identical results at any worker count.  The serial
            path additionally emits per-migration obs spans.

    The first migration has no checkpoint anywhere: checkpoint-based
    methods fall back to their dedup/full behaviour for it, exactly as
    VeCycle would in deployment.
    """
    if schedule is None:
        days = int(trace.duration_hours // 24) + 1
        schedule = vdi_schedule(days)
    if not schedule:
        raise ValueError("schedule is empty")
    log.info(
        "replaying VDI schedule",
        migrations=len(schedule),
        ram_gib=round(trace.ram_bytes / 2**30, 2),
    )
    events = sorted(schedule, key=lambda e: e.time_hours)
    picks = [fingerprint_at(trace, event.time_hours) for event in events]
    methods = tuple(methods)
    resolved = resolve_workers(workers)
    records: List[VdiMigrationRecord] = []
    with _span("vdi.replay", migrations=len(events)) as replay_span:
        if resolved == 1 or len(events) < 2 * resolved:
            # No checkpoint exists at any host before the first migration.
            previous_hashes: Optional[np.ndarray] = None
            previous_index: Optional[ChecksumIndex] = None
            per_migration: List[Dict[Method, float]] = []
            for index, event in enumerate(events):
                with _span("vdi.migration", index=index) as sp:
                    current, at_hours = picks[index]
                    fractions = pair_fractions(
                        current.hashes, previous_hashes, previous_index, methods
                    )
                    if sp is not NOOP_SPAN:
                        sp.set(
                            source=event.source,
                            destination=event.destination,
                            hours=round(at_hours, 2),
                            first=previous_index is None,
                        )
                per_migration.append(fractions)
                # The source stores this state as the checkpoint the next
                # migration (back to it) will reuse.
                previous_hashes = current.hashes
                previous_index = ChecksumIndex(current)
        else:
            shards = []
            for chunk in np.array_split(np.arange(len(events)), resolved):
                if chunk.shape[0] == 0:
                    continue
                start, stop = int(chunk[0]), int(chunk[-1]) + 1
                has_carry = start > 0
                arrays = [picks[i][0].hashes for i in range(start, stop)]
                if has_carry:
                    arrays.insert(0, picks[start - 1][0].hashes)
                shards.append((arrays, has_carry, methods))
            per_migration = [
                fractions
                for chunk_result in pmap(
                    _vdi_fractions_shard, shards, workers=resolved
                )
                for fractions in chunk_result
            ]
        records = [
            VdiMigrationRecord(
                index=index,
                event=event,
                fingerprint_hours=picks[index][1],
                fractions=per_migration[index],
            )
            for index, event in enumerate(events)
        ]
        replay_span.set(migrations=len(records))
    return VdiResult(ram_bytes=trace.ram_bytes, records=records)
