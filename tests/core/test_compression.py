"""Unit tests for repro.core.compression."""

import pytest

from repro.core.compression import (
    DELTA_XBZRLE,
    LZO_FAST,
    NO_COMPRESSION,
    CompressionModel,
    get_compression,
)

MIB = 2**20


class TestRegistry:
    def test_presets(self):
        assert get_compression("none") is NO_COMPRESSION
        assert get_compression("lzo-fast") is LZO_FAST
        assert get_compression("delta-xbzrle") is DELTA_XBZRLE

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_compression("brotli")


class TestCostModel:
    def test_no_compression_is_identity(self):
        assert NO_COMPRESSION.compressed_bytes(MIB) == MIB
        assert NO_COMPRESSION.compress_time(MIB) < 1e-9

    def test_ratio_applied(self):
        assert LZO_FAST.compressed_bytes(2 * MIB) == MIB

    def test_times_scale_with_cores(self):
        single = LZO_FAST.compress_time(MIB, cores=1)
        quad = LZO_FAST.compress_time(MIB, cores=4)
        assert quad == pytest.approx(single / 4)

    def test_decompress_faster_than_compress(self):
        assert LZO_FAST.decompress_time(MIB) < LZO_FAST.compress_time(MIB)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            LZO_FAST.compressed_bytes(-1)
        with pytest.raises(ValueError):
            LZO_FAST.compress_time(MIB, cores=0)
        with pytest.raises(ValueError):
            CompressionModel(name="x", ratio=0.5, throughput=1, decompress_throughput=1)
        with pytest.raises(ValueError):
            CompressionModel(name="x", ratio=2, throughput=0, decompress_throughput=1)
