"""Unit tests for repro.mem.pagestore."""

import hashlib

import numpy as np
import pytest

from repro.core.checksum import DEFAULT_CHECKSUM, MD5, PAGE_SIZE
from repro.mem.image import MemoryImage
from repro.mem.pagestore import ContentAddressedStore, PageStore
from repro.obs.metrics import get_registry
from repro.storage.repository import CheckpointRepository


class TestPageBytes:
    def test_page_size(self):
        store = PageStore()
        assert len(store.page_bytes(1)) == PAGE_SIZE

    def test_deterministic(self):
        assert PageStore().page_bytes(42) == PageStore().page_bytes(42)

    def test_distinct_ids_distinct_pages(self):
        store = PageStore()
        assert store.page_bytes(1) != store.page_bytes(2)

    def test_zero_id_is_zero_page(self):
        assert PageStore().page_bytes(0) == bytes(PAGE_SIZE)

    def test_custom_page_size(self):
        store = PageStore(page_size=128)
        assert len(store.page_bytes(5)) == 128

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PageStore(page_size=0)

    def test_cache_bounded(self):
        store = PageStore(cache_limit=4)
        for content_id in range(20):
            store.page_bytes(content_id + 1)
        assert len(store._cache) <= 4

    def test_cached_value_reused(self):
        store = PageStore()
        first = store.page_bytes(9)
        assert store.page_bytes(9) is first

    @pytest.mark.parametrize("page_size", [4096, 100, 64, 1])
    @pytest.mark.parametrize("content_id", [0, 1, 7, 2**32 + 5, 2**64 - 1])
    def test_generate_is_the_reference_keystream(self, page_size, content_id):
        # Block i is BLAKE2b-512 of the id (8 bytes, little-endian) and
        # the counter i (4 bytes, little-endian); the page is the blocks
        # joined and cut to the page size.
        seed = content_id.to_bytes(8, "little")
        blocks = -(-page_size // 64)
        reference = b"".join(
            hashlib.blake2b(seed + i.to_bytes(4, "little"), digest_size=64).digest()
            for i in range(blocks)
        )[:page_size]
        assert PageStore(page_size=page_size)._generate(content_id) == reference


class TestMaterialize:
    def test_materialize_concatenates(self):
        store = PageStore(page_size=64)
        slots = np.asarray([1, 0, 2], dtype=np.uint64)
        blob = store.materialize(slots)
        assert len(blob) == 3 * 64
        assert blob[:64] == store.page_bytes(1)
        assert blob[64:128] == bytes(64)
        assert blob[128:] == store.page_bytes(2)

    def test_materializes_a_memory_image(self):
        image = MemoryImage(8)
        image.write_fresh(np.asarray([0, 1]))
        image.write_duplicate_of(np.asarray([2]), 0)
        blob = PageStore().materialize(image.slots)
        page = [blob[at : at + PAGE_SIZE] for at in range(0, len(blob), PAGE_SIZE)]
        assert page[0] == page[2] != page[1]  # duplicates share their bytes
        assert page[3] == bytes(PAGE_SIZE)  # a never-written slot is a zero page


class TestLruEviction:
    def test_evicts_one_at_a_time(self):
        store = PageStore(cache_limit=4)
        for content_id in range(1, 5):
            store.page_bytes(content_id)
        store.page_bytes(5)
        # Exactly the oldest entry left, not a wholesale flush.
        assert len(store._cache) == 4
        assert 1 not in store._cache
        assert {2, 3, 4, 5} <= set(store._cache)

    def test_recently_used_survives(self):
        store = PageStore(cache_limit=4)
        for content_id in range(1, 5):
            store.page_bytes(content_id)
        store.page_bytes(1)  # refresh 1 → 2 becomes the LRU victim
        store.page_bytes(5)
        assert 1 in store._cache
        assert 2 not in store._cache

    def test_page_eviction_counter_increments(self):
        registry = get_registry()
        counter = registry.counter("pagestore.page_evictions")
        before = counter.value
        store = PageStore(cache_limit=2)
        for content_id in range(1, 6):
            store.page_bytes(content_id)
        assert counter.value == before + 3

    def test_digest_cache_bounded_with_counter(self):
        registry = get_registry()
        counter = registry.counter("pagestore.digest_evictions")
        before = counter.value
        store = PageStore(cache_limit=4)
        store._digest_limit = 3  # shrink for the test; default is 64Ki
        for content_id in range(1, 8):
            store.digest_for(content_id)
        assert list(store._memo(DEFAULT_CHECKSUM)) == [5, 6, 7]
        assert counter.value == before + 4

    def test_digest_memo_is_lru_per_algorithm(self):
        counter = get_registry().counter("pagestore.digest_evictions")
        store = PageStore(cache_limit=4)
        store._digest_limit = 3
        for content_id in (1, 2, 3):
            store.digest_for(content_id)
        store.digest_for(1)  # a hit: 2 becomes the oldest
        store.digests_for(np.asarray([9, 4, 9], dtype=np.uint64), MD5)
        # Another algorithm's memo is its own: nothing of the first moved.
        assert list(store._memo(DEFAULT_CHECKSUM)) == [2, 3, 1]
        assert list(store._memo(MD5)) == [4, 9]
        before = counter.value
        assert store.digests_for(np.asarray([5, 3, 6], dtype=np.uint64)) == [
            DEFAULT_CHECKSUM.digest(store.page_bytes(cid)) for cid in (5, 3, 6)
        ]
        # 3 was refreshed; 2 and then 1 went, exactly the excess.
        assert list(store._memo(DEFAULT_CHECKSUM)) == [3, 5, 6]
        assert counter.value == before + 2

    def test_ascending_ids_skip_the_unique_pass(self, monkeypatch):
        store = PageStore()
        expected = store.digests_for(np.asarray([4, 1, 4, 2], dtype=np.uint64))

        def no_unique(*_args, **_kwargs):
            raise AssertionError("np.unique on an already distinct slice")

        monkeypatch.setattr(np, "unique", no_unique)
        assert store.digests_for(np.asarray([1, 2, 4], dtype=np.uint64)) == [
            expected[1], expected[3], expected[0]
        ]


def _page(tag: bytes) -> bytes:
    return (tag * 64)[:64]


def _digest(tag: bytes) -> bytes:
    return MD5.digest(_page(tag))


class TestContentAddressedStore:
    def test_put_get_dedup(self):
        store = ContentAddressedStore()
        assert store.put(_digest(b"a"), _page(b"a")) is True
        assert store.put(_digest(b"a"), _page(b"a")) is False
        assert store.get(_digest(b"a")) == _page(b"a")
        assert store.get(_digest(b"b")) is None
        assert len(store) == 1

    def test_stored_bytes_is_a_running_total(self):
        store = ContentAddressedStore()
        for tag in (b"a", b"b", b"c"):
            store.put(_digest(tag), _page(tag))
            store.retain(_digest(tag))
        assert store.stored_bytes == 3 * 64
        store.release(_digest(b"a"))
        assert store.stored_bytes == 2 * 64

    def test_release_evicts_only_at_last_reference(self):
        store = ContentAddressedStore()
        store.put(_digest(b"x"), _page(b"x"))
        store.retain(_digest(b"x"))
        store.retain(_digest(b"x"))
        assert store.refcount(_digest(b"x")) == 2
        assert store.release(_digest(b"x")) == 0  # one owner remains
        assert _digest(b"x") in store
        assert store.release(_digest(b"x")) == 64  # last owner gone
        assert _digest(b"x") not in store
        assert store.stored_bytes == 0

    def test_retain_release_many_skip_none_slots(self):
        store = ContentAddressedStore()
        store.put(_digest(b"a"), _page(b"a"))
        digests = [_digest(b"a"), None, _digest(b"a")]
        store.retain_many(digests)
        assert store.refcount(_digest(b"a")) == 2
        assert store.release_many(digests) == 64

    def test_sweep_evicts_unreferenced_only(self):
        store = ContentAddressedStore()
        store.put(_digest(b"kept"), _page(b"kept"))
        store.retain(_digest(b"kept"))
        store.put(_digest(b"loose"), _page(b"loose"))
        assert store.sweep_unreferenced() == 64
        assert _digest(b"kept") in store
        assert _digest(b"loose") not in store

    def test_pages_reach_the_repository_by_spill_only(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        spilled = []
        store = ContentAddressedStore(repository=repo, spill=spilled.append)
        store.put(_digest(b"d"), _page(b"d"))
        store.put_many([_digest(b"e"), _digest(b"d")], [_page(b"e"), _page(b"d")])
        assert spilled == []  # held until the owner flushes
        store.flush_spill()
        assert spilled == [[
            (_digest(b"d"), _page(b"d")),
            (_digest(b"e"), _page(b"e")),
            (_digest(b"d"), _page(b"d")),
        ]]
        store.flush_spill()  # nothing new: no empty batch
        assert len(spilled) == 1
        # The store itself never writes to its repository.
        assert not repo.has_page(_digest(b"d"))

    def test_get_faults_released_page_back_in_from_repository(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        repo.put_page(_digest(b"s"), _page(b"s"))
        repo._refcounts[_digest(b"s")] = 1  # keep the segment alive
        store = ContentAddressedStore(repository=repo)
        assert store.stored_bytes == 0  # not resident
        assert _digest(b"s") in store  # but reachable
        assert store.get(_digest(b"s")) == _page(b"s")  # spill/load
        assert store.stored_bytes == 64  # resident again


class TestDigests:
    def test_digest_matches_direct_hash(self):
        store = PageStore()
        assert store.digest_for(7) == DEFAULT_CHECKSUM.digest(store.page_bytes(7))

    def test_digests_for_matches_per_id(self):
        store = PageStore()
        ids = np.asarray([3, 1, 3, 2, 1, 0], dtype=np.uint64)
        batched = store.digests_for(ids)
        assert batched == [store.digest_for(int(cid)) for cid in ids]

    def test_digests_for_computes_each_distinct_once(self):
        store = PageStore(cache_limit=16)
        ids = np.asarray([5, 5, 5, 6, 6], dtype=np.uint64)
        store.digests_for(ids)
        # Only the distinct ids were materialized.
        assert set(store._cache) == {5, 6}

    def test_digests_for_empty(self):
        assert PageStore().digests_for(np.asarray([], dtype=np.uint64)) == []
