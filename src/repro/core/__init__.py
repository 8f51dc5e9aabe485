"""VeCycle's core: checksums, fingerprints, checkpoints, transfer methods."""

from repro.core.checksum import (
    DEFAULT_CHECKSUM,
    MD5,
    PAGE_SIZE,
    ChecksumAlgorithm,
    available_algorithms,
    get_algorithm,
)
from repro.core.checkpoint import Checkpoint, CheckpointStore, ChecksumIndex
from repro.core.compression import (
    DELTA_XBZRLE,
    LZO_FAST,
    NO_COMPRESSION,
    CompressionModel,
    get_compression,
)
from repro.core.dedup import DedupCache, dedup_split, dedup_unique_count
from repro.core.gang import (
    GangMember,
    GangTransferSet,
    gang_transfer_set,
    shared_base_image_fleet,
)
from repro.core.incremental import (
    CheckpointUpdatePlan,
    full_rewrite_seconds,
    plan_checkpoint_update,
    should_update_in_place,
    update_cost_seconds,
)
from repro.core.dirty import GenerationTracker, content_dirty_slots
from repro.core.fingerprint import (
    ZERO_HASH,
    Fingerprint,
    resize_fingerprint,
    similarity_matrix,
)
from repro.core.prediction import (
    AdaptiveSelector,
    SelectionDecision,
    SimilarityPredictor,
)
from repro.core.protocol import (
    TrafficBreakdown,
    WireFormat,
    first_round_traffic,
    per_page_query_traffic,
)
from repro.core.strategies import (
    DEDUP,
    MIYAKODORI,
    MIYAKODORI_DEDUP,
    QEMU,
    VECYCLE,
    VECYCLE_DEDUP,
    VECYCLE_DIRTY,
    MigrationStrategy,
    available_strategies,
    get_strategy,
)
from repro.core.transfer import (
    PAPER_METHODS,
    Method,
    TransferSet,
    compare_methods,
    compute_transfer_set,
)

__all__ = [
    "GangMember",
    "GangTransferSet",
    "gang_transfer_set",
    "shared_base_image_fleet",
    "CheckpointUpdatePlan",
    "full_rewrite_seconds",
    "plan_checkpoint_update",
    "should_update_in_place",
    "update_cost_seconds",
    "DELTA_XBZRLE",
    "LZO_FAST",
    "NO_COMPRESSION",
    "CompressionModel",
    "get_compression",
    "AdaptiveSelector",
    "SelectionDecision",
    "SimilarityPredictor",
    "DEFAULT_CHECKSUM",
    "MD5",
    "PAGE_SIZE",
    "ChecksumAlgorithm",
    "available_algorithms",
    "get_algorithm",
    "Checkpoint",
    "CheckpointStore",
    "ChecksumIndex",
    "DedupCache",
    "dedup_split",
    "dedup_unique_count",
    "GenerationTracker",
    "content_dirty_slots",
    "ZERO_HASH",
    "Fingerprint",
    "resize_fingerprint",
    "similarity_matrix",
    "TrafficBreakdown",
    "WireFormat",
    "first_round_traffic",
    "per_page_query_traffic",
    "DEDUP",
    "MIYAKODORI",
    "MIYAKODORI_DEDUP",
    "QEMU",
    "VECYCLE",
    "VECYCLE_DEDUP",
    "VECYCLE_DIRTY",
    "MigrationStrategy",
    "available_strategies",
    "get_strategy",
    "PAPER_METHODS",
    "Method",
    "TransferSet",
    "compare_methods",
    "compute_transfer_set",
]
