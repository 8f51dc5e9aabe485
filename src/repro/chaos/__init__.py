"""Deterministic chaos plane: seeded fault schedules and invariant checks.

The cluster already has fault *hooks* scattered through it — the
daemon's :class:`~repro.runtime.faults.FaultInjector`, the repository's
:class:`~repro.storage.repository.CrashPoint` hook, the registry's
``probe_fault`` callable.  This package unifies them
behind the :class:`~repro.chaos.schedule.FaultKind` vocabulary, one seeded
:class:`~repro.chaos.schedule.FaultSchedule` and a soak runner
(:func:`~repro.chaos.soak.run_soak`) that replays a live migration
schedule through real localhost daemons while injecting the scheduled
faults, then asserts cluster-wide invariants after every round.

Everything is deterministic: the same seed produces the same schedule,
the same fault firings, and the same report — so any bug the soak
shakes out is reproducible with ``vecycle chaos --seed N`` and can be
pinned as a regression test.
"""

from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.chaos.soak import RoundRecord, SoakReport, run_soak

__all__ = [
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "InvariantChecker",
    "InvariantViolation",
    "RoundRecord",
    "SoakReport",
    "run_soak",
]
