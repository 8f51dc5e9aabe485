"""Live cluster control plane with checkpoint-aware placement.

The analytic :mod:`repro.cluster` replay answers "what would this
schedule cost"; :mod:`repro.orchestrator` actually runs it.  An
:class:`Orchestrator` manages a fleet of
:class:`~repro.runtime.daemon.CheckpointDaemon` hosts through the same
wire protocol migrations use:

* :class:`ClusterRegistry` polls each daemon with HEARTBEAT frames and
  keeps a cluster-wide :class:`ClusterView` — liveness, open sessions,
  and a bottom-k similarity sketch of every hosted checkpoint, durable
  entries included, so the inventory survives daemon restarts.
* A placement policy (:class:`BestCheckpoint`, :class:`DestinationSwap`,
  :class:`CycleAware`) turns the view into a scored
  :class:`PlacementDecision`, traced via :mod:`repro.obs`.
* :class:`MigrationExecutor` runs the chosen migration under admission
  control (per-host and cluster-wide concurrency caps) with structured
  failure reporting; the source's one retry loop owns every reconnect.
* :class:`LiveCluster` stands up named localhost daemons, registered,
  with an orchestrator and an aggregator over them; it restarts a
  daemon in place and tears the cluster down in order.
* :func:`replay_vdi_live` replays the Figure-8 VDI schedule through all
  of the above on localhost daemons and checks the aggregate traffic
  against the analytic :func:`~repro.cluster.vdi.replay_vdi`.
* :class:`TelemetryAggregator` polls daemons with TELEMETRY frames,
  merges their sequence-numbered metrics snapshots into cluster
  rollups (restart-tolerant, per-host/per-VM labels),
  and backs the controller's Prometheus endpoint and ``vecycle top``.
"""

from repro.orchestrator.cluster import LiveCluster
from repro.orchestrator.controller import Orchestrator
from repro.orchestrator.crossval import (
    LiveVdiCrossValidation,
    LiveVdiRecord,
    replay_vdi_live,
    run_live_vdi_crossval,
)
from repro.orchestrator.executor import (
    AdmissionLimits,
    MigrationExecutor,
    MigrationOutcome,
)
from repro.orchestrator.inventory import (
    SKETCH_K,
    ClusterView,
    HostInventory,
    digest_sketch,
    sketch_similarity,
)
from repro.orchestrator.placement import (
    BestCheckpoint,
    CycleAware,
    DestinationSwap,
    PlacementDecision,
    PlacementError,
    PlacementPolicy,
    PlacementRequest,
    available_policies,
    get_policy,
)
from repro.orchestrator.registry import ClusterRegistry, HostRecord
from repro.orchestrator.telemetry import TelemetryAggregator

__all__ = [
    "AdmissionLimits",
    "BestCheckpoint",
    "ClusterRegistry",
    "ClusterView",
    "CycleAware",
    "DestinationSwap",
    "HostInventory",
    "HostRecord",
    "LiveCluster",
    "LiveVdiCrossValidation",
    "LiveVdiRecord",
    "MigrationExecutor",
    "MigrationOutcome",
    "Orchestrator",
    "PlacementDecision",
    "PlacementError",
    "PlacementPolicy",
    "PlacementRequest",
    "SKETCH_K",
    "TelemetryAggregator",
    "available_policies",
    "digest_sketch",
    "get_policy",
    "replay_vdi_live",
    "run_live_vdi_crossval",
    "sketch_similarity",
]
