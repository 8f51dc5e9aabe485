"""Materializing page bytes for content ids.

The scalable simulator works on 64-bit content ids only.  The live
runtime (:mod:`repro.runtime`) moves real 4 KiB blocks: it checksums
their bytes and keeps them in its content store and packs.
:class:`PageStore` bridges the two: it deterministically expands a
content id into a unique 4 KiB page, so equal ids always give
byte-identical pages and distinct ids give distinct pages.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checksum import DEFAULT_CHECKSUM, PAGE_SIZE, ChecksumAlgorithm
from repro.core.fingerprint import ZERO_HASH
from repro.obs import names

_ZERO_PAGE = bytes(PAGE_SIZE)

_ZERO_ID = int(ZERO_HASH)

_KEYSTREAM = hashlib.blake2b(digest_size=64)
"""The unkeyed 64-byte BLAKE2b state every page's keystream starts from:
copying it skips the constructor's parameter set-up per block."""

_COUNTER_SUFFIXES: List[bytes] = []


def _counter_suffixes(count: int) -> List[bytes]:
    """The first ``count`` little-endian u32 keystream counters."""
    while len(_COUNTER_SUFFIXES) < count:
        _COUNTER_SUFFIXES.append(len(_COUNTER_SUFFIXES).to_bytes(4, "little"))
    return _COUNTER_SUFFIXES[:count]


class PageStore:
    """Deterministic content-id → page-bytes expansion with bounded LRU caches.

    Pages are generated by repeating a BLAKE2b keystream seeded with the
    content id.  The zero id maps to the all-zeros page, matching the
    :data:`~repro.core.fingerprint.ZERO_HASH` convention.

    The digest memo is one plain dict per checksum algorithm, content id
    → digest, kept in least-recently-used order by insertion: a hit is
    moved to the young end by re-inserting it, and a trim deletes from
    the old end.  Keys are the ids themselves, so a batch of all-new ids
    is entered with one ``update`` and probed with one ``isdisjoint``.

    Both the page cache and each digest memo evict least-recently-used
    entries, exactly as many as the limit requires, instead of flushing
    wholesale, so a working set that slightly exceeds the limit degrades
    gracefully rather than falling off a cliff.  Evictions are counted in
    the process metrics registry (``pagestore.page_evictions`` /
    ``pagestore.digest_evictions``).

    Args:
        page_size: Page size in bytes (default 4 KiB, like the paper).
        cache_limit: Maximum number of generated pages to memoize.  Each
            algorithm's digest memo holds up to
            ``max(4 * cache_limit, 65536)`` entries (digests are ~256×
            smaller than pages).
    """

    def __init__(self, page_size: int = PAGE_SIZE, cache_limit: int = 4096) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be > 0, got {page_size}")
        self.page_size = page_size
        self._cache_limit = cache_limit
        self._digest_limit = max(cache_limit * 4, 1 << 16)
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._digests: Dict[str, Dict[int, bytes]] = {}
        self._zero = bytes(page_size)

    def page_bytes(self, content_id: int) -> bytes:
        """The unique ``page_size`` block of bytes for ``content_id``."""
        content_id = int(content_id)
        if content_id == _ZERO_ID:
            return self._zero
        cached = self._cache.get(content_id)
        if cached is not None:
            self._cache.move_to_end(content_id)
            return cached
        page = self._generate(content_id)
        while len(self._cache) >= self._cache_limit:
            self._cache.popitem(last=False)
            names.PAGESTORE_PAGE_EVICTIONS.add()
        self._cache[content_id] = page
        return page

    def pages_for(self, content_ids: Sequence[int]) -> List[bytes]:
        """:meth:`page_bytes` of every id in ``content_ids`` (Python ints).

        When all of them are cached this is one dict read and one LRU
        touch per id, with no call per page; a miss or the zero id
        anywhere sends the whole list through :meth:`page_bytes`.
        Either way the cache ends in the order, and with the eviction
        count, the loop would leave.
        """
        cache = self._cache
        try:
            pages = [cache[content_id] for content_id in content_ids]
        except KeyError:
            return [self.page_bytes(content_id) for content_id in content_ids]
        deque(map(cache.move_to_end, content_ids), maxlen=0)
        return pages

    def _generate(self, content_id: int) -> bytes:
        # Hot path: synthesis runs once per distinct content id, but a
        # migration digests thousands of them.  Block i is
        # blake2b(id | counter i): the state after the id is built once
        # and copied per block, and the counter suffixes are shared by
        # all pages.  Joining full blocks and truncating once produces
        # the same bytes as slicing each block to the remaining length.
        seeded = _KEYSTREAM.copy()
        seeded.update(content_id.to_bytes(8, "little"))
        fork = seeded.copy
        blocks = []
        for counter in _counter_suffixes(-(-self.page_size // 64)):
            block = fork()
            block.update(counter)
            blocks.append(block.digest())
        return b"".join(blocks)[: self.page_size]

    def _memo(self, algorithm: ChecksumAlgorithm) -> Dict[int, bytes]:
        """``algorithm``'s digest memo (content id → digest), oldest first."""
        return self._digests.setdefault(algorithm.name, {})

    def _trim(self, memo: Dict[int, bytes]) -> None:
        """Evict the least recently used entries beyond the limit."""
        excess = len(memo) - self._digest_limit
        if excess > 0:
            for content_id in list(islice(memo, excess)):
                del memo[content_id]
            names.PAGESTORE_DIGEST_EVICTIONS.add(excess)

    def digest_for(
        self, content_id: int, algorithm: ChecksumAlgorithm = DEFAULT_CHECKSUM
    ) -> bytes:
        """The real page checksum for ``content_id`` (memoized).

        The live migration runtime checksums every outgoing page; the
        deterministic id → bytes mapping makes the digest a pure function
        of the content id, so one digest per distinct content suffices no
        matter how many slots share it.
        """
        content_id = int(content_id)
        memo = self._memo(algorithm)
        cached = memo.pop(content_id, None)
        if cached is None:
            cached = algorithm.func(self.page_bytes(content_id))
        memo[content_id] = cached
        self._trim(memo)
        return cached

    def digests_for(
        self, content_ids: np.ndarray, algorithm: ChecksumAlgorithm = DEFAULT_CHECKSUM
    ) -> List[bytes]:
        """Per-slot digests for an array of content ids, batched.

        Computes each *distinct* id once (duplicate-heavy images digest
        far fewer pages than they have slots) and touches the LRU once
        per distinct id rather than once per slot.  Ids that are already
        strictly ascending — a slice of ``np.unique``'s output, as the
        source's digest pass hands over — are distinct as given and skip
        the second ``np.unique``.  Memo maintenance is batched: misses
        are inserted as they are computed and the LRU is trimmed once at
        the end, so a large batch pays one eviction scan instead of one
        bound check per id.
        """
        content_ids = np.asarray(content_ids)
        if content_ids.size < 2 or bool((content_ids[1:] > content_ids[:-1]).all()):
            distinct, inverse = content_ids.tolist(), None
        else:
            uniques, inverse = np.unique(content_ids, return_inverse=True)
            distinct = uniques.tolist()
        memo = self._memo(algorithm)
        if memo.keys().isdisjoint(distinct):
            # Nothing known (a source's first look at an image): no probe
            # per id, the pages in one fetch, the digests in one pass.
            digests = list(map(algorithm.func, self.pages_for(distinct)))
            memo.update(zip(distinct, digests))
        else:
            digests = []
            for cid in distinct:
                cached = memo.pop(cid, None)
                if cached is None:
                    cached = algorithm.func(self.page_bytes(cid))
                memo[cid] = cached
                digests.append(cached)
        self._trim(memo)
        if inverse is None:
            return digests
        return list(map(digests.__getitem__, inverse.tolist()))

    def materialize(self, slots: np.ndarray) -> bytes:
        """Concatenate the page bytes for an array of content ids.

        The bytes a source's content ids stand for: what a migrated
        image must equal, page for page, at the destination.
        """
        return b"".join(self.page_bytes(int(cid)) for cid in np.asarray(slots))


class ContentAddressedStore:
    """Digest-keyed page storage with refcounts and optional spill.

    The receiving side of the live runtime keeps every page it has ever
    seen — from preloaded checkpoints and from incoming migrations —
    keyed by its checksum.  Storing by content means a page shared by
    many slots (or many VMs on a consolidation host) occupies one entry,
    and a checksum-only protocol message resolves to real bytes with one
    dictionary lookup (the runtime analogue of Listing 1's
    binary-search-then-seek path).

    Every *owner* of a page — a checkpoint slot, a slot an in-flight
    migration session rewrote — holds one reference (:meth:`retain` /
    :meth:`release`); a session slot not rewritten yet borrows its
    checkpoint's.  Releasing the last reference evicts the bytes, so
    dropping a checkpoint actually shrinks
    :attr:`stored_bytes` instead of leaking forever.  ``stored_bytes``
    is a maintained running total, O(1) no matter how many pages.

    Args:
        repository: Optional durable backing
            (:class:`~repro.storage.repository.CheckpointRepository`)
            that ``get`` and ``in`` fall back to, faulting missing pages
            back in, so released pages stay reachable until the
            repository itself releases their records.  The store never
            writes to it: pages get there through ``spill``.
        spill: Optional ``(batch) -> None`` callable, the store's one
            durability mode: puts collect ``(digest, page)`` pairs, and
            :meth:`flush_spill` hands the hook everything collected
            since the last call as one list.  The daemon wires a
            write-behind queue in here so pack I/O overlaps frame
            reception; whoever installs a spill owns the durability
            contract (flush after each batch of puts, and everything
            handed over must hit the repository before the referencing
            manifest commits).
    """

    def __init__(self, repository=None, spill=None) -> None:
        self._pages: Dict[bytes, bytes] = {}
        self._refs: Dict[bytes, int] = {}
        self._stored_bytes = 0
        self.repository = repository
        self._spill = spill
        self._unspilled: List[Tuple[bytes, bytes]] = []

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, digest: bytes) -> bool:
        if digest in self._pages:
            return True
        return self.repository is not None and self.repository.has_page(digest)

    @property
    def stored_bytes(self) -> int:
        """Total resident bytes held, after deduplication (O(1))."""
        return self._stored_bytes

    def put(self, digest: bytes, page: bytes) -> bool:
        """Store ``page`` under ``digest``; True if it was new content.

        With a ``spill`` hook installed the page also waits for
        :meth:`flush_spill`, and the hook decides when the bytes reach
        the repository.
        """
        if self._spill is not None:
            self._unspilled.append((digest, page))
        if digest in self._pages:
            return False
        self._pages[digest] = page
        self._stored_bytes += len(page)
        return True

    def put_many(self, digests: Sequence[bytes], pages: Sequence[bytes]) -> None:
        """:meth:`put` of every ``(digests[i], pages[i])``, in order.

        The pairs reach the spill hook exactly as a loop of puts would
        hand them over; of a digest met twice, or already resident, the
        first bytes stay.
        """
        if self._spill is not None:
            self._unspilled.extend(zip(digests, pages))
        resident = self._pages
        # Reversed, so the dict keeps the first occurrence's page.
        new = dict(zip(reversed(digests), reversed(pages)))
        if not resident.keys().isdisjoint(new):
            new = {d: page for d, page in new.items() if d not in resident}
        resident.update(new)
        self._stored_bytes += sum(map(len, new.values()))

    def flush_spill(self) -> None:
        """Hand the pages put since the last call to the spill hook."""
        if self._unspilled:
            batch, self._unspilled = self._unspilled, []
            self._spill(batch)

    def get(self, digest: bytes) -> Optional[bytes]:
        """The page bytes for ``digest``, or None if never seen.

        A resident miss falls back to the backing repository and faults
        the page back into memory (the spill/load path).
        """
        page = self._pages.get(digest)
        if page is None and self.repository is not None:
            page = self.repository.get_page(digest)
            if page is not None:
                self._pages[digest] = page
                self._stored_bytes += len(page)
        return page

    # --- reference counting --------------------------------------------

    def refcount(self, digest: bytes) -> int:
        """Live references (slot owners) for ``digest``."""
        return self._refs.get(digest, 0)

    def retain(self, digest: bytes) -> None:
        """Record one more owner of ``digest`` (one call per slot)."""
        self._refs[digest] = self._refs.get(digest, 0) + 1

    def release(self, digest: bytes) -> int:
        """Drop one owner; evicts the bytes when the last one goes.

        Returns the number of resident bytes freed (0 while other
        owners remain).  The backing repository's copy, if any, is
        untouched — record reclamation is the repository's refcounted
        job.
        """
        count = self._refs.get(digest, 0) - 1
        if count > 0:
            self._refs[digest] = count
            return 0
        self._refs.pop(digest, None)
        page = self._pages.pop(digest, None)
        if page is None:
            return 0
        self._stored_bytes -= len(page)
        return len(page)

    def refcounts(self) -> Dict[bytes, int]:
        """Snapshot copy of digest → live owner count.

        The audit surface for invariant checking (:mod:`repro.chaos`):
        comparing this against the owners a daemon *should* have (its
        hosted checkpoints plus non-retired sessions) detects both ref
        leaks and double releases without poking at private state.
        """
        return dict(self._refs)

    def retain_many(self, digests: Iterable[bytes]) -> None:
        """Retain every (non-None) digest in ``digests``, one per slot
        (what a :meth:`retain` per digest does, without the calls)."""
        refs = self._refs
        count_of = refs.get
        for digest in digests:
            if digest is not None:
                refs[digest] = count_of(digest, 0) + 1

    def release_many(self, digests: Iterable[bytes]) -> int:
        """Release every (non-None) digest, evicting exactly where a
        :meth:`release` per digest would; returns resident bytes freed."""
        refs, pages = self._refs, self._pages
        count_of = refs.get
        freed = 0
        for digest in digests:
            if digest is None:
                continue
            count = count_of(digest, 0) - 1
            if count > 0:
                refs[digest] = count
                continue
            refs.pop(digest, None)
            page = pages.pop(digest, None)
            if page is not None:
                freed += len(page)
        self._stored_bytes -= freed
        return freed
