"""Unit tests for repro.core.strategies."""

import pytest

from repro.core import DEFAULT_CHECKSUM
from repro.core.strategies import (
    DEDUP,
    MIYAKODORI,
    MIYAKODORI_DEDUP,
    QEMU,
    VECYCLE,
    VECYCLE_DEDUP,
    VECYCLE_DIRTY,
    available_strategies,
    get_strategy,
)
from repro.core.transfer import Method


class TestRegistry:
    def test_all_paper_systems_registered(self):
        names = set(available_strategies())
        assert {
            "qemu",
            "dedup",
            "miyakodori",
            "miyakodori+dedup",
            "vecycle",
            "vecycle+dedup",
            "vecycle+dirty",
        } <= names

    def test_get_strategy_roundtrip(self):
        for name in available_strategies():
            assert get_strategy(name).name == name

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="vecycle"):
            get_strategy("xen-motion")


class TestSemantics:
    def test_qemu_is_full_migration(self):
        assert QEMU.method is Method.FULL
        assert not QEMU.reuses_checkpoint

    def test_dedup_needs_no_checkpoint(self):
        assert DEDUP.method is Method.DEDUP
        assert not DEDUP.reuses_checkpoint

    def test_miyakodori_uses_dirty_tracking(self):
        assert MIYAKODORI.method is Method.DIRTY
        assert MIYAKODORI.reuses_checkpoint
        assert MIYAKODORI_DEDUP.method is Method.DIRTY_DEDUP

    def test_vecycle_uses_content_hashes(self):
        assert VECYCLE.method is Method.HASHES
        assert VECYCLE.reuses_checkpoint
        assert VECYCLE_DEDUP.method is Method.HASHES_DEDUP
        assert VECYCLE_DIRTY.method is Method.DIRTY_HASHES

    def test_default_checksum_is_the_runtime_default(self):
        assert VECYCLE.checksum is DEFAULT_CHECKSUM
        assert DEFAULT_CHECKSUM.digest_size == 16
        assert VECYCLE.wire.checksum_bytes == 16

    def test_with_checksum_swaps_algorithm(self):
        sha = VECYCLE.with_checksum("sha256")
        assert sha.checksum.name == "sha256"
        assert sha.wire.checksum_bytes == 32
        assert sha.method is Method.HASHES
        # Original untouched (frozen dataclass).
        assert VECYCLE.checksum is DEFAULT_CHECKSUM
