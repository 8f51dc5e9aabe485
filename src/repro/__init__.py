"""repro — a reproduction of VeCycle (Middleware 2015).

VeCycle speeds up virtual-machine migrations by *recycling checkpoints*:
every migration source keeps a local checkpoint of the departing VM, and
a later migration back to that host transfers only the pages whose
content is not already in the checkpoint, identified by per-page
checksums (content-based redundancy elimination).

Package map:

* :mod:`repro.core` — checksums, fingerprints, checkpoint indexes and
  the transfer-set semantics of every traffic-reduction method.
* :mod:`repro.mem` — content-addressed memory images and mutations.
* :mod:`repro.traces` — synthetic Memory Buddies-style trace generator
  with calibrated machine presets (Table 1 systems, crawlers, desktop).
* :mod:`repro.analysis` — similarity decay, duplicate pages, and the
  per-pair method comparison (Figures 1, 2, 4, 5).
* :mod:`repro.net` / :mod:`repro.storage` — link and disk cost models.
* :mod:`repro.migration` — the QEMU-like multi-round pre-copy simulator
  (Figures 6 and 7).
* :mod:`repro.runtime` — a live asyncio migration runtime, the one
  implementation that moves real page bytes: checkpoint daemons,
  migration sources, traffic shaping, and cross-validation of
  on-the-wire bytes against the analytic model.
* :mod:`repro.cluster` — hosts, schedules and the VDI replay (Figure 8).

Quickstart::

    import numpy as np
    from repro import (
        Checkpoint, SimVM, VECYCLE, QEMU, LAN_1GBE, simulate_migration,
    )
    from repro.mem import boot_populate

    vm = SimVM.idle("vm0", memory_bytes=1 << 30)
    boot_populate(vm.image, np.random.default_rng(0),
                  used_fraction=0.95, duplicate_fraction=0.08,
                  zero_fraction=0.03)
    checkpoint = Checkpoint(vm_id="vm0", fingerprint=vm.fingerprint())
    fast = simulate_migration(vm, VECYCLE, LAN_1GBE, checkpoint=checkpoint)
    slow = simulate_migration(vm, QEMU, LAN_1GBE)
    print(fast.total_time_s, "vs", slow.total_time_s)
"""

from repro.core import (
    MD5,
    PAGE_SIZE,
    PAPER_METHODS,
    Checkpoint,
    CheckpointStore,
    ChecksumIndex,
    DEDUP,
    Fingerprint,
    GenerationTracker,
    Method,
    MIYAKODORI,
    MIYAKODORI_DEDUP,
    MigrationStrategy,
    QEMU,
    TransferSet,
    VECYCLE,
    VECYCLE_DEDUP,
    VECYCLE_DIRTY,
    available_strategies,
    compute_transfer_set,
    get_strategy,
)
from repro.cluster import Host, replay_vdi, vdi_schedule
from repro.migration import (
    MigrationReport,
    PrecopyConfig,
    SimVM,
    migrate_between_hosts,
    ping_pong,
    simulate_migration,
)
from repro.net import LAN_1GBE, WAN_CLOUDNET, Link
from repro.runtime import (
    CheckpointDaemon,
    CrossValidation,
    MigrationError,
    MigrationMetrics,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
    cross_validate,
    idle_vm_scenario,
    run_cross_validation,
)
from repro.storage import HDD_HD204UI, SSD_INTEL330, Disk
from repro.traces import Trace, generate_trace, get_machine

__version__ = "1.0.0"

__all__ = [
    "MD5",
    "PAGE_SIZE",
    "PAPER_METHODS",
    "Checkpoint",
    "CheckpointStore",
    "ChecksumIndex",
    "DEDUP",
    "Fingerprint",
    "GenerationTracker",
    "Method",
    "MIYAKODORI",
    "MIYAKODORI_DEDUP",
    "MigrationStrategy",
    "QEMU",
    "TransferSet",
    "VECYCLE",
    "VECYCLE_DEDUP",
    "VECYCLE_DIRTY",
    "available_strategies",
    "compute_transfer_set",
    "get_strategy",
    "Host",
    "replay_vdi",
    "vdi_schedule",
    "MigrationReport",
    "PrecopyConfig",
    "SimVM",
    "migrate_between_hosts",
    "ping_pong",
    "simulate_migration",
    "LAN_1GBE",
    "WAN_CLOUDNET",
    "Link",
    "CheckpointDaemon",
    "CrossValidation",
    "MigrationError",
    "MigrationMetrics",
    "MigrationSource",
    "RetryPolicy",
    "RuntimeConfig",
    "SourceState",
    "cross_validate",
    "idle_vm_scenario",
    "run_cross_validation",
    "HDD_HD204UI",
    "SSD_INTEL330",
    "Disk",
    "Trace",
    "generate_trace",
    "get_machine",
    "__version__",
]
