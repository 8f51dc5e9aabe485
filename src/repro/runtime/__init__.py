"""Live asyncio migration runtime.

Everything under :mod:`repro.runtime` executes the VeCycle protocol
over real sockets: a per-host :class:`CheckpointDaemon` receives
migrations and hosts checkpoints, a :class:`MigrationSource` plans and
streams one VM's move, :class:`ShapedStream` makes the connection obey
the analytic link model, and :mod:`~repro.runtime.crossval` checks that
what went over the wire equals what the analytic model predicted.
"""

from repro.runtime.crossval import (
    CrossValidation,
    Scenario,
    cross_validate,
    idle_vm_scenario,
    run_cross_validation,
)
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.frames import Frame, FrameCodec, FrameError
from repro.runtime.hosted import HostedCheckpoint
from repro.runtime.metrics import MigrationMetrics, RoundMetrics
from repro.runtime.planner import FirstRoundPlan, plan_first_round
from repro.runtime.shaping import ShapedStream, open_shaped_connection
from repro.runtime.source import (
    MigrationError,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)

__all__ = [
    "CheckpointDaemon",
    "CrossValidation",
    "FirstRoundPlan",
    "Frame",
    "FrameCodec",
    "FrameError",
    "HostedCheckpoint",
    "MigrationError",
    "MigrationMetrics",
    "MigrationSource",
    "RetryPolicy",
    "RoundMetrics",
    "RuntimeConfig",
    "Scenario",
    "ShapedStream",
    "SourceState",
    "cross_validate",
    "idle_vm_scenario",
    "open_shaped_connection",
    "plan_first_round",
    "run_cross_validation",
]
