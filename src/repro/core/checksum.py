"""Page checksum algorithms and their throughput model.

VeCycle identifies reusable pages by comparing per-page checksums
(Section 3.4 of the paper).  The prototype uses MD5; the paper notes that
SHA-1/SHA-256 are drop-in replacements if MD5 is considered too weak, and
that the *checksum rate* lower-bounds the migration time on fast links
(the authors measured ~350 MiB/s single-core MD5 against a 120 MiB/s
gigabit wire rate).

This module provides:

* :class:`ChecksumAlgorithm` — a named, pluggable page-checksum function
  together with its digest size and a calibrated single-core throughput
  used by the migration cost model.
* A registry of algorithms (``md5``, ``sha1``, ``sha256``, ``sha256-128``,
  ``blake2b``, ``fnv1a`` as a cheap non-cryptographic stand-in for
  hardware-accelerated checksums).
* :data:`DEFAULT_CHECKSUM` — the one place the runtime's algorithm is
  chosen: ``sha256-128``, SHA-256 cut to MD5's 16 bytes, so every frame
  keeps its size.  On a CPU with SHA extensions OpenSSL hashes pages
  with it about twice as fast as MD5 (``docs/calibration.md`` has the
  measured rates); without them it is *slower* than MD5.  The choice is
  fixed, never made by measuring at start-up: hosts that measured
  differently would pick different hashes and recycle nothing from each
  other.  The paper's figures keep MD5 (:data:`MD5`) explicitly.
* :func:`measure_throughput` — empirically measures the checksum rate on
  the current machine, used by the ``benchmarks/test_checksum_rates.py``
  harness to reproduce the Section 3.4 discussion.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable

PAGE_SIZE = 4096
"""Page size in bytes.  The paper assumes 4 KiB pages throughout (§2.1)."""

# Single-core throughputs (bytes/second) used by the deterministic cost
# model.  The MD5 figure is the one reported in the paper (§3.4); the
# others are scaled from typical relative speeds of the hashlib
# implementations so the ablation benchmarks show a meaningful spread.
# Truncating a digest costs nothing, so ``sha256-128`` is ``sha256``'s.
_MIB = 1024 * 1024
_DEFAULT_THROUGHPUT = {
    "md5": 350 * _MIB,
    "sha1": 400 * _MIB,
    "sha256": 200 * _MIB,
    "sha256-128": 200 * _MIB,
    "blake2b": 500 * _MIB,
    "fnv1a": 2000 * _MIB,
}


def _fnv1a_64(data: bytes) -> bytes:
    """64-bit FNV-1a hash of ``data``, returned as 8 big-endian bytes.

    A cheap non-cryptographic checksum: the stand-in for the paper's
    "cheaper checksum, hardware-acceleration" option (§3.4).  Unsuitable
    when an adversary controls page contents, fine for benchmarking the
    checksum-rate/wire-rate crossover.
    """
    fnv_offset = 0xCBF29CE484222325
    fnv_prime = 0x100000001B3
    value = fnv_offset
    for byte in data:
        value ^= byte
        value = (value * fnv_prime) & 0xFFFFFFFFFFFFFFFF
    return value.to_bytes(8, "big")


@dataclass(frozen=True)
class ChecksumAlgorithm:
    """A page-checksum algorithm with its cost-model parameters.

    Attributes:
        name: Registry key, e.g. ``"md5"``.
        digest_size: Size of one checksum in bytes (16 for MD5).  This is
            what the bulk hash announce costs per page on the wire (§3.2:
            a 4 GiB VM announces ``2**20 * 16 B = 16 MiB`` of MD5 hashes).
        throughput: Modelled single-core hashing rate in bytes/second,
            used by the migration simulator to charge checksum time.
        func: ``bytes -> bytes`` digest function.
    """

    name: str
    digest_size: int
    throughput: float
    func: Callable[[bytes], bytes]

    def digest(self, page: bytes) -> bytes:
        """Checksum a single page (or any byte string)."""
        return self.func(page)

    def seconds_for(self, num_bytes: int) -> float:
        """Modelled time to checksum ``num_bytes`` bytes on one core."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        return num_bytes / self.throughput


def _hashlib_algorithm(name: str) -> ChecksumAlgorithm:
    hasher = getattr(hashlib, name)
    return ChecksumAlgorithm(
        name=name,
        digest_size=hasher(b"").digest_size,
        throughput=_DEFAULT_THROUGHPUT[name],
        func=lambda data, _h=hasher: _h(data).digest(),
    )


_REGISTRY: Dict[str, ChecksumAlgorithm] = {
    "md5": _hashlib_algorithm("md5"),
    "sha1": _hashlib_algorithm("sha1"),
    "sha256": _hashlib_algorithm("sha256"),
    "sha256-128": ChecksumAlgorithm(
        name="sha256-128",
        digest_size=16,
        throughput=_DEFAULT_THROUGHPUT["sha256-128"],
        func=lambda data, _h=hashlib.sha256: _h(data).digest()[:16],
    ),
    "blake2b": _hashlib_algorithm("blake2b"),
    "fnv1a": ChecksumAlgorithm(
        name="fnv1a",
        digest_size=8,
        throughput=_DEFAULT_THROUGHPUT["fnv1a"],
        func=_fnv1a_64,
    ),
}

MD5 = _REGISTRY["md5"]
"""The paper prototype's algorithm (§3.4), kept by the paper's figures;
the runtime defaults to :data:`DEFAULT_CHECKSUM`."""

SHA256_128 = _REGISTRY["sha256-128"]
"""SHA-256 truncated to 16 bytes: collision-resistant, MD5's digest size."""

DEFAULT_CHECKSUM = SHA256_128
"""The algorithm every default in the package resolves to."""


def get_algorithm(name: str) -> ChecksumAlgorithm:
    """Look up a registered checksum algorithm by name.

    Raises:
        KeyError: if ``name`` is not registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown checksum algorithm {name!r}; known: {known}") from None


def available_algorithms() -> Iterable[str]:
    """Names of all registered checksum algorithms, sorted."""
    return sorted(_REGISTRY)


def register_algorithm(algorithm: ChecksumAlgorithm) -> None:
    """Register a custom checksum algorithm (overwrites an existing name)."""
    _REGISTRY[algorithm.name] = algorithm


def measure_throughput(
    algorithm: ChecksumAlgorithm,
    total_bytes: int = 16 * _MIB,
    page_size: int = PAGE_SIZE,
) -> float:
    """Empirically measure ``algorithm``'s page-hashing rate in bytes/s.

    Hashes ``total_bytes`` worth of distinct pages and returns the
    achieved throughput.  Used by the §3.4 benchmark to compare the real
    checksum rate on this machine with the gigabit wire rate.
    """
    if total_bytes <= 0:
        raise ValueError(f"total_bytes must be > 0, got {total_bytes}")
    num_pages = max(1, total_bytes // page_size)
    # Distinct page contents so the measurement is not cache-friendly in
    # an unrealistic way; cheap to build with a running counter prefix.
    template = bytearray(page_size)
    start = time.perf_counter()
    for i in range(num_pages):
        template[0:8] = i.to_bytes(8, "little")
        algorithm.digest(bytes(template))
    elapsed = time.perf_counter() - start
    return (num_pages * page_size) / elapsed if elapsed > 0 else float("inf")
