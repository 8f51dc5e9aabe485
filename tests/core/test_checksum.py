"""Unit tests for repro.core.checksum."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import DEFAULT_CHECKSUM
from repro.core.checksum import (
    MD5,
    PAGE_SIZE,
    SHA256_128,
    ChecksumAlgorithm,
    available_algorithms,
    get_algorithm,
    measure_throughput,
    register_algorithm,
)
from repro.core.fingerprint import Fingerprint
from repro.core.protocol import WireFormat
from repro.core.strategies import MigrationStrategy
from repro.core.transfer import Method
from repro.mem.pagestore import PageStore
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.sink import _SinkSession


class TestRegistry:
    def test_md5_is_default(self):
        assert MD5.name == "md5"
        assert MD5.digest_size == 16

    def test_all_paper_algorithms_present(self):
        names = set(available_algorithms())
        assert {"md5", "sha1", "sha256"} <= names

    def test_get_algorithm_roundtrip(self):
        for name in available_algorithms():
            assert get_algorithm(name).name == name

    def test_unknown_algorithm_raises_with_known_list(self):
        with pytest.raises(KeyError, match="md5"):
            get_algorithm("crc32")

    def test_register_custom_algorithm(self):
        custom = ChecksumAlgorithm(
            name="test-xor",
            digest_size=1,
            throughput=1e9,
            func=lambda data: bytes([sum(data) % 256]),
        )
        register_algorithm(custom)
        assert get_algorithm("test-xor").digest(b"\x01\x02") == bytes([3])


class TestDigests:
    def test_md5_matches_hashlib(self):
        page = b"x" * PAGE_SIZE
        assert MD5.digest(page) == hashlib.md5(page).digest()

    def test_sha256_matches_hashlib(self):
        page = bytes(range(256)) * (PAGE_SIZE // 256)
        assert get_algorithm("sha256").digest(page) == hashlib.sha256(page).digest()

    def test_fnv1a_is_deterministic_and_8_bytes(self):
        fnv = get_algorithm("fnv1a")
        digest = fnv.digest(b"hello world")
        assert len(digest) == 8
        assert digest == fnv.digest(b"hello world")

    def test_fnv1a_distinguishes_pages(self):
        fnv = get_algorithm("fnv1a")
        assert fnv.digest(b"a" * 64) != fnv.digest(b"b" * 64)

    @given(st.binary(min_size=0, max_size=256))
    def test_every_algorithm_digest_size_is_consistent(self, data):
        for name in ("md5", "sha1", "blake2b", "fnv1a"):
            algorithm = get_algorithm(name)
            assert len(algorithm.digest(data)) == algorithm.digest_size


class TestDefault:
    def test_sha256_128_is_sha256_cut_to_16_bytes(self):
        page = bytes(range(256)) * (PAGE_SIZE // 256)
        assert SHA256_128.digest(page) == hashlib.sha256(page).digest()[:16]
        assert SHA256_128.digest_size == MD5.digest_size == 16

    def test_sha256_128_models_the_sha256_rate(self):
        # Truncation costs nothing; the model stays on 2015 hardware.
        assert SHA256_128.throughput == get_algorithm("sha256").throughput

    def test_runtime_default_is_the_registered_sha256_128(self):
        assert DEFAULT_CHECKSUM is SHA256_128 is get_algorithm("sha256-128")

    def test_every_default_site_resolves_to_it(self):
        store = PageStore()
        digest = DEFAULT_CHECKSUM.digest(store.page_bytes(7))
        ids = np.asarray([7], dtype=np.uint64)
        assert MigrationStrategy("s", Method.HASHES).checksum is DEFAULT_CHECKSUM
        assert WireFormat().checksum_bytes == DEFAULT_CHECKSUM.digest_size
        assert store.digest_for(7) == digest
        assert PageStore().digests_for(ids) == [digest]
        daemon = CheckpointDaemon()
        hosted = daemon.install_checkpoint("vm", Fingerprint(hashes=ids))
        assert hosted.algorithm is DEFAULT_CHECKSUM
        assert hosted.slot_digests == [digest]
        assert _SinkSession.restore("s", daemon.store, {}).algorithm is DEFAULT_CHECKSUM


class TestCostModel:
    def test_seconds_scale_linearly(self):
        assert MD5.seconds_for(2 * PAGE_SIZE) == pytest.approx(
            2 * MD5.seconds_for(PAGE_SIZE)
        )

    def test_zero_bytes_take_zero_time(self):
        assert MD5.seconds_for(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            MD5.seconds_for(-1)

    def test_paper_md5_rate(self):
        # §3.4: ~350 MiB/s single core.
        assert MD5.throughput == 350 * 2**20

    def test_announce_bytes_4gib_vm_is_16mib(self):
        # §3.2: 2^20 pages * 16 B MD5 = 16 MiB.
        num_pages = (4 * 2**30) // PAGE_SIZE
        assert MD5.announce_bytes(num_pages) == 16 * 2**20

    def test_announce_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            MD5.announce_bytes(-1)


class TestMeasurement:
    def test_measure_throughput_positive(self):
        rate = measure_throughput(MD5, total_bytes=64 * PAGE_SIZE)
        assert rate > 0

    def test_measure_throughput_rejects_zero_bytes(self):
        with pytest.raises(ValueError):
            measure_throughput(MD5, total_bytes=0)
