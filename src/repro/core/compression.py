"""Migration-stream compression models (related work [24], Svärd et al.).

The paper notes that "compressing the migration data also helps to
reduce the data volume … all the insights from these works are still
valid and can be combined with VeCycle."  This module provides the
combination: a :class:`CompressionModel` that the migration simulator
can layer under any transfer strategy, trading CPU time for wire bytes.

Two calibrated presets:

* ``LZO_FAST`` — the cheap dictionary compressor QEMU's own
  multi-threaded compression uses; ~2:1 on typical guest pages at
  ~400 MiB/s per core.
* ``DELTA_XBZRLE`` — XBZRLE-style delta encoding against a previously
  sent version of the page; excellent on sparsely updated pages
  (~8:1) but useless on first-seen content (modelled by applying the
  delta ratio only to pages whose *slot* was seen before).

These are cost models only: no implementation compresses page bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

_MIB = 2**20


@dataclass(frozen=True)
class CompressionModel:
    """Cost/ratio model of a migration-stream compressor.

    Attributes:
        name: Preset name.
        ratio: Average compression ratio on page payload (output size =
            payload / ratio).  Applies to full-page payloads only —
            checksums and references are already minimal.
        throughput: Compression speed in bytes/second per core.
        decompress_throughput: Decompression speed, bytes/second/core.
    """

    name: str
    ratio: float
    throughput: float
    decompress_throughput: float

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise ValueError(f"ratio must be >= 1, got {self.ratio}")
        if self.throughput <= 0 or self.decompress_throughput <= 0:
            raise ValueError("throughputs must be > 0")

    def compressed_bytes(self, payload_bytes: int) -> int:
        """Wire size of ``payload_bytes`` of page data after compression."""
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
        return int(payload_bytes / self.ratio)

    def compress_time(self, payload_bytes: int, cores: int = 1) -> float:
        """Source-side CPU seconds to compress ``payload_bytes``."""
        if cores <= 0:
            raise ValueError(f"cores must be > 0, got {cores}")
        return payload_bytes / (self.throughput * cores)

    def decompress_time(self, payload_bytes: int, cores: int = 1) -> float:
        """Destination-side CPU seconds to decompress."""
        if cores <= 0:
            raise ValueError(f"cores must be > 0, got {cores}")
        return payload_bytes / (self.decompress_throughput * cores)


NO_COMPRESSION = CompressionModel(
    name="none", ratio=1.0, throughput=1e18, decompress_throughput=1e18
)

LZO_FAST = CompressionModel(
    name="lzo-fast", ratio=2.0, throughput=400 * _MIB,
    decompress_throughput=800 * _MIB,
)

DELTA_XBZRLE = CompressionModel(
    name="delta-xbzrle", ratio=8.0, throughput=300 * _MIB,
    decompress_throughput=900 * _MIB,
)

PRESETS = {
    model.name: model for model in (NO_COMPRESSION, LZO_FAST, DELTA_XBZRLE)
}


def get_compression(name: str) -> CompressionModel:
    """Look up a compression preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown compression {name!r}; known: {known}") from None
