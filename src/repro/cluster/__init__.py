"""Multi-host orchestration: schedules, policies, VDI, fleet sim."""

from repro.cluster.policies import (
    ConsolidationPolicy,
    FollowTheSun,
    Move,
    ThresholdConsolidation,
    VmStatus,
)
from repro.cluster.schedule import (
    MigrationEvent,
    ping_pong_schedule,
    vdi_schedule,
    weekday_of_trace_day,
)
from repro.cluster.simulator import (
    ClusterReport,
    DatacenterSimulator,
    FleetVm,
    build_fleet,
)
from repro.cluster.vdi import (
    VDI_METHODS,
    VdiMigrationRecord,
    VdiResult,
    replay_vdi,
)

__all__ = [
    "ConsolidationPolicy",
    "FollowTheSun",
    "Move",
    "ThresholdConsolidation",
    "VmStatus",
    "MigrationEvent",
    "ping_pong_schedule",
    "vdi_schedule",
    "weekday_of_trace_day",
    "ClusterReport",
    "DatacenterSimulator",
    "FleetVm",
    "build_fleet",
    "VDI_METHODS",
    "VdiMigrationRecord",
    "VdiResult",
    "replay_vdi",
]
