"""Storage substrate: disk models, image sync, and the durable repository."""

from repro.storage.blocksync import (
    BLOCK_SIZE,
    DiskImage,
    DiskSyncPlan,
    disk_sync_seconds,
    plan_disk_sync,
)
from repro.storage.disk import HDD_HD204UI, SSD_INTEL330, TMPFS, Disk, get_disk
from repro.storage.repository import (
    CheckpointManifest,
    CheckpointRepository,
    CrashPoint,
    RecoveryReport,
    RepositoryError,
    VerifyReport,
)

__all__ = [
    "BLOCK_SIZE",
    "CheckpointManifest",
    "CheckpointRepository",
    "CrashPoint",
    "RecoveryReport",
    "RepositoryError",
    "VerifyReport",
    "DiskImage",
    "DiskSyncPlan",
    "disk_sync_seconds",
    "plan_disk_sync",
    "HDD_HD204UI",
    "SSD_INTEL330",
    "TMPFS",
    "Disk",
    "get_disk",
]
