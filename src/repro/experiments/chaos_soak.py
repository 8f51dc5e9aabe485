"""The ``vecycle chaos`` table: seeded fault sweeps over a live cluster.

Renders the per-round results of the seeds ``vecycle chaos`` ran
through :func:`repro.chaos.soak.run_soak`, plus the invariant verdict.
A failing seed reproduces with exactly the
same command line — the whole point of the deterministic fault plane.

The table's ``att`` column is the connections each round's migration
opened (``RoundRecord.attempts``, one plus the reconnects of the
source's one retry loop).  It is not in the JSON signature.
"""

from __future__ import annotations

from typing import List

from repro.chaos import SoakReport
from repro.obs import names
from repro.obs.metrics import get_registry
from repro.obs.telemetry import counter_value, merge_instruments

#: Chaos-plane counters surfaced in the report.
REPORTED_COUNTERS = (
    names.CHAOS_ROUNDS,
    names.CHAOS_RESTARTS,
    names.CHAOS_INVARIANT_VIOLATIONS,
    names.CHAOS_FAULTS_SKIPPED,
    names.DAEMON_INJECTED_ABORTS,
    names.DAEMON_INJECTED_STALLS,
    names.DAEMON_INJECTED_TRUNCATIONS,
    names.DAEMON_INJECTED_TELEMETRY_DROPS,
    names.DAEMON_SESSIONS_POISONED,
    names.DAEMON_RESPILLED_SEGMENTS,
    names.REPO_INJECTED_CORRUPTIONS,
)


def format_table(reports: List[SoakReport]) -> str:
    """Per-round results for each seed, then the sweep verdict."""
    lines: List[str] = []
    for report in reports:
        lines.append(
            f"chaos soak seed={report.seed}: {report.rounds} rounds, "
            f"{len(report.schedule.faults)} faults scheduled"
        )
        lines.append(
            f"{'#':>3s} {'fault':<16s} {'destination':<14s} "
            f"{'ok':<5s} {'att':>3s} {'gen':>4s} {'error':<12s}"
        )
        lines.append("-" * 64)
        for record in report.records:
            lines.append(
                f"{record.round_no:3d} {record.fault or '-':<16s} "
                f"{record.destination or '-':<14s} "
                f"{'ok' if record.ok else ('defer' if record.deferred else 'FAIL'):<5s} "
                f"{record.attempts:3d} "
                f"{record.generation if record.generation is not None else '-':>4} "
                f"{record.error_code or '-':<12s}"
            )
        lines.append(
            f"migrations ok/failed/deferred: {report.migrations_ok}/"
            f"{report.migrations_failed}/{report.deferred}  "
            f"restarts: {report.restarts}  "
            f"faults skipped: {report.faults_skipped}"
        )
        if report.violations:
            lines.append("INVARIANT VIOLATIONS:")
            lines.extend(f"  ! {violation}" for violation in report.violations)
        else:
            lines.append("all invariants held")
        lines.append("")
    # The chaos and repository counters are process-wide; the daemons'
    # live only in each incarnation's registry, folded into its report.
    emitted = merge_instruments(
        [get_registry().snapshot(), *(r.daemon_instruments for r in reports)]
    )
    lines.append("chaos counters:")
    for counter in REPORTED_COUNTERS:
        if counter.name in emitted:
            value = counter_value(emitted, counter.name)
            lines.append(f"  {counter.name:<36s} {value:.0f}")
    verdict = all(report.ok for report in reports)
    lines.append("")
    lines.append(
        f"seed sweep verdict: {'PASS' if verdict else 'FAIL'} "
        f"({sum(1 for r in reports if r.ok)}/{len(reports)} seeds clean)"
    )
    return "\n".join(lines)
