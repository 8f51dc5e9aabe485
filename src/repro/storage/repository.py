"""Durable, crash-safe on-disk checkpoint repository.

VeCycle's premise is that a checkpoint written at migration time is
*still on the source host's disk* when the VM ping-pongs back (§3.3);
the paper keeps it as one file read sequentially, with a checksum →
offset list for out-of-order reuse.  This is that design, content
addressed (``docs/architecture.md`` has the long form):

* **Packs** — page contents live in append-only files
  (``segments/000000.pack``, ...) of self-delimiting records ``header |
  digest | payload``; the 14-byte header is ``"VCPK"``, the digest
  length (u16), the payload length (u32) and a CRC-32 of those ten
  bytes, little-endian.  A page shared by many checkpoints is stored once.
* **The index** — ``digest → (pack, offset, length)``, in memory only,
  one small integer per record, rebuilt by ``recover`` from the packs.
  A reader that meets a damaged header resynchronises on the next one
  whose CRC holds, so a flipped byte costs its own record and no other.
* **Manifests** — one JSON file per hosted checkpoint
  (``manifests/<vm>.json``): the slot → digest map plus metadata.  The
  manifest is the *commit point*: a checkpoint exists iff it does.
* **Sessions** — completed migration results (``sessions/<id>.json``),
  replayed to a source that reconnects after a daemon restart.

Write ordering is *records → barrier → manifest*: ``put_pages`` appends
with ``pwritev`` and no fsync, ``sync_pending_dirs`` is the data barrier
(one ``fsync`` per pack appended to, plus the directory when a pack was
created), and ``commit_checkpoint`` issues it before the manifest's
temp file + ``fsync`` + ``rename``.  A crash — ``kill -9`` or power loss
— can tear or lose only records appended after the last barrier, which
no committed manifest references.  A handle appends only to packs it
created (``O_EXCL``), always at the offset it accounts for: a
predecessor's torn tail is never appended after, and a failed append is
overwritten by the next.

Releasing a checkpoint is bookkeeping (records forgotten and counted
dead, ``repo.bytes_reclaimed``); the space comes back by *compaction* —
a sealed pack more than half dead has its surviving records appended to
the current pack, barrier, then is unlinked (``compact``, run by the
daemon's write-behind thread after a commit; ``gc`` also drops what no
manifest references and compacts every pack with dead bytes).  Reads
are ``os.pread``: an ``mmap`` would count every touched page in the
process's resident set.  Damage is *quarantined*, never fatal: a bad
record a manifest needs is copied to ``quarantine/`` and the manifest
follows — one flipped bit costs one checkpoint, not the daemon.

One handle owns a directory's writes.  A second may commit beside it
(to packs of its own) and is seen on the cold ``checkpoint_stats`` path,
but ``gc`` and ``compact`` assume no other live handle: run ``vecycle
repo gc`` on a stopped daemon's directory.  The earlier file-per-page
layout is refused (:class:`RepositoryError`).  Test hook: ``fault_hook``
is called with a :class:`CrashPoint` between durable steps; raising
there simulates ``kill -9``, re-opening the directory the restart.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import struct
import threading
import weakref
import zlib
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple
from urllib.parse import quote, unquote

from repro.core.checksum import DEFAULT_CHECKSUM, MD5, available_algorithms, get_algorithm
from repro.obs import names
from repro.obs.log import get_logger

log = get_logger(__name__)

_PACK_SUFFIX = ".pack"
_EVIDENCE_SUFFIX = ".page"
_MANIFEST_SUFFIX = ".json"
_TMP_PREFIX = ".tmp-"

_MAGIC = b"VCPK"
_LENGTHS = struct.Struct("<4sHI")
_HEADER = struct.Struct("<4sHII")

_PACK_ROLL_BYTES = 256 << 20
"""A pack this large is sealed and a new one started: a 4 GiB checkpoint
is 16 files and descriptors, and compacting one is a bounded copy."""
_COMPACT_DEAD_FRACTION = 0.5
"""Compact a sealed pack once more than this much of it is dead: disk use
stays under twice the live bytes, and a record is copied about once per
halving of its pack."""
_SCAN_CHUNK = 1 << 20  # packs are read back this many bytes at a time
# Records per pwritev: three buffers each, at most IOV_MAX a call.
_RECORDS_PER_WRITE = (os.sysconf("SC_IOV_MAX") if hasattr(os, "sysconf") else 1024) // 3
_MAX_PAYLOAD = (1 << 24) - 1  # an index entry has 24 bits of payload length


def _locate(pack: int, offset: int, length: int) -> int:
    """An index entry: pack number, payload offset and length in one int."""
    return ((pack << 32 | offset) << 24) | length


def _located(entry: int) -> Tuple[int, int, int]:
    return entry >> 56, (entry >> 24) & 0xFFFFFFFF, entry & _MAX_PAYLOAD


@functools.lru_cache(maxsize=16)
def _header(digest_length: int, payload_length: int) -> bytes:
    if payload_length > _MAX_PAYLOAD:
        raise ValueError(f"page of {payload_length} bytes exceeds {_MAX_PAYLOAD}")
    lengths = _LENGTHS.pack(_MAGIC, digest_length, payload_length)
    return lengths + struct.pack("<I", zlib.crc32(lengths))


def _verifies(digest: bytes, payload) -> bool:
    """Whether ``payload`` hashes to ``digest`` under some algorithm
    registered at the digest's size.

    A record does not say which algorithm named it, and several share a
    size (``md5`` and ``sha256-128`` are both 16 bytes): a repository
    written before the default changed holds both.  The default is tried
    first, so a current record costs one hash; the registry is read at
    call time, so an algorithm registered later is tried too.
    """
    size = len(digest)
    if size == DEFAULT_CHECKSUM.digest_size and DEFAULT_CHECKSUM.func(payload) == digest:
        return True
    return any(
        algorithm.digest_size == size and algorithm.func(payload) == digest
        for algorithm in map(get_algorithm, available_algorithms())
        if algorithm is not DEFAULT_CHECKSUM
    )


def _read_records(fd: int, start: int) -> Tuple[List[Tuple[int, bytes, memoryview]], int]:
    """The whole records in the chunk of a pack at ``start``, as
    ``([(record offset, digest, payload view), ...], resume)``: call again
    with ``resume``, and ``resume == start`` means nothing more can be
    read (end of file, or a torn tail).  Bytes that are not a record — a
    header whose magic or CRC is wrong — are skipped by resynchronising
    on the next magic."""
    buf = os.pread(fd, _SCAN_CHUNK, start)
    records = []
    at = 0
    while len(buf) - at >= _HEADER.size:
        magic, digest_length, payload_length, crc = _HEADER.unpack_from(buf, at)
        if magic != _MAGIC or crc != zlib.crc32(buf[at : at + _LENGTHS.size]):
            found = buf.find(_MAGIC, at + 1)
            # Keep a tail a magic could straddle for the next call.
            at = found if found >= 0 else len(buf) - len(_MAGIC) + 1
            continue
        body = at + _HEADER.size + digest_length
        end = body + payload_length
        if end > len(buf):
            if at or end <= _SCAN_CHUNK:
                break  # continues in the next chunk, or torn at end of file
            buf = os.pread(fd, end, start)  # one record longer than a chunk
            if end > len(buf):
                break
        payload = memoryview(buf)[body:end]
        records.append((start + at, buf[at + _HEADER.size : body], payload))
        at = end
    return records, start + at


class CrashPoint(str, Enum):
    """Where :attr:`CheckpointRepository.fault_hook` is called: the
    instants between durable steps at which a ``kill -9`` matters.
    Iterating the enum is the crash matrix.  A member is its string
    (``CrashPoint.MANIFEST_WRITTEN == "manifest.written"``)."""

    SEGMENT_WRITTEN = "segment.written"
    """A batch's records appended; not yet indexed, no barrier issued."""

    SEGMENTS_SYNCED = "segments.synced"
    """Data barrier done, manifest not yet written."""

    MANIFEST_WRITTEN = "manifest.written"
    """Manifest temp file written + fsynced, not yet renamed."""

    MANIFEST_COMMITTED = "manifest.committed"
    """Manifest renamed into place, directory not yet fsynced."""

    SESSION_WRITTEN = "session.written"
    """Session temp file written + fsynced, not yet renamed."""

    COMPACTION_COPIED = "compaction.copied"
    """A pack's surviving records copied and synced, the pack not yet
    unlinked: both copies exist."""


class RepositoryError(RuntimeError):
    """The on-disk repository is unusable (not per-entry corruption)."""


@dataclass(frozen=True)
class CheckpointManifest:
    """The durable description of one hosted checkpoint.

    The slot → digest map is stored as a table of distinct digests plus
    per-slot indices into it, so a duplicate-heavy image costs one hex
    string per *content*, not per slot.
    """

    vm_id: str
    slot_digests: List[bytes]
    algorithm: str = MD5.name
    page_size: int = 4096
    timestamp: float = 0.0
    generation: int = 0
    """Monotonic per-VM checkpoint generation (0 = pre-generation
    manifest).  The daemon bumps it on every adoption; a migration
    source that can name the destination's current generation gets a
    DIGEST_DELTA manifest instead of the full checksum announce."""

    @property
    def num_pages(self) -> int:
        return len(self.slot_digests)

    @property
    def unique_digests(self) -> List[bytes]:
        return sorted(set(self.slot_digests))

    def to_json(self) -> str:
        """Serialize to the on-disk manifest format (version 1)."""
        table: Dict[bytes, int] = {}
        slots: List[int] = []
        for digest in self.slot_digests:
            index = table.setdefault(digest, len(table))
            slots.append(index)
        return json.dumps(
            {
                "version": 1,
                "vm_id": self.vm_id,
                "algorithm": self.algorithm,
                "page_size": self.page_size,
                "timestamp": self.timestamp,
                "generation": self.generation,
                "digests": [d.hex() for d in table],
                "slots": slots,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckpointManifest":
        """Parse and validate a manifest; raises ValueError on damage."""
        data = json.loads(text)
        if data.get("version") != 1:
            raise ValueError(f"unsupported manifest version {data.get('version')!r}")
        table = [bytes.fromhex(d) for d in data["digests"]]
        algorithm = get_algorithm(data["algorithm"])
        for digest in table:
            if len(digest) != algorithm.digest_size:
                raise ValueError(
                    f"digest length {len(digest)} does not match "
                    f"{algorithm.name}"
                )
        slots = data["slots"]
        if any(not 0 <= s < len(table) for s in slots):
            raise ValueError("slot index outside digest table")
        return cls(
            vm_id=data["vm_id"],
            slot_digests=[table[s] for s in slots],
            algorithm=data["algorithm"],
            page_size=int(data["page_size"]),
            timestamp=float(data["timestamp"]),
            generation=int(data.get("generation", 0)),
        )


@dataclass
class RecoveryReport:
    """What :meth:`CheckpointRepository.recover` found on disk."""

    checkpoints: List[CheckpointManifest] = field(default_factory=list)
    sessions: Dict[str, dict] = field(default_factory=dict)
    quarantined: List[str] = field(default_factory=list)
    orphan_segments: int = 0
    temp_files_removed: int = 0

    @property
    def recovered(self) -> int:
        return len(self.checkpoints)


@dataclass
class VerifyReport:
    """Result of a full segment-digest audit (:meth:`verify`)."""

    segments_checked: int = 0
    corrupt_segments: List[str] = field(default_factory=list)
    quarantined_manifests: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.corrupt_segments and not self.quarantined_manifests


class _Pack:
    """One pack file as a handle accounts for it.  ``size`` is how far it
    has read or written whole records: where a scan resumes and its own
    next append lands.  ``dead`` estimates the bytes below ``size`` a
    compaction would drop; it only schedules one, never deletes."""

    __slots__ = ("number", "fd", "size", "dead")

    def __init__(self, number: int, fd: int) -> None:
        self.number, self.fd, self.size, self.dead = number, fd, 0, 0


_Suspects = Dict[bytes, Tuple[_Pack, int, int]]  # digest → (pack, record offset, size)


def _pack_number(name: str) -> int:
    if name.endswith(_PACK_SUFFIX) and name[: -len(_PACK_SUFFIX)].isdigit():
        return int(name[: -len(_PACK_SUFFIX)])
    raise RepositoryError(
        f"segments/{name} is not a pack file: the file-per-page layout "
        "(segments/<xx>/<digest>.page) of an earlier version is not read; "
        "start from an empty state directory"
    )


def _close_packs(packs: Dict[int, _Pack]) -> None:
    """Close every pack descriptor (``close()`` and the finalizer)."""
    while packs:
        with suppress(OSError):
            os.close(packs.popitem()[1].fd)


class CheckpointRepository:
    """Content-addressed pack files + atomic per-checkpoint manifests.

    Args:
        root: State directory; created (with subdirectories) if absent.
        fsync: Durability barriers on every write.  Tests may disable
            them for speed; the write *ordering* (records → manifest
            temp → rename) is kept either way.
    """

    def __init__(self, root: Path | str, fsync: bool = True) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.manifests_dir = self.root / "manifests"
        self.sessions_dir = self.root / "sessions"
        self.quarantine_dir = self.root / "quarantine"
        for directory in (self.segments_dir, self.manifests_dir,
                          self.sessions_dir, self.quarantine_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fault_hook: Optional[Callable[[CrashPoint], None]] = None
        self._segments_root = str(self.segments_dir)
        # (Anything that is not a pack is the earlier layout: refused.)
        self._next_pack = 1 + max(map(_pack_number, os.listdir(self._segments_root)), default=-1)
        # One lock for append + index update + barrier: the write-behind
        # thread and a synchronous flush can reach them together.
        self._lock = threading.RLock()
        self._closed = False
        self._index: Dict[bytes, int] = {}  # digest → _locate(...)
        self._packs: Dict[int, _Pack] = {}
        self._active: Optional[_Pack] = None  # the pack this handle appends to
        self._unsynced: Set[_Pack] = set()
        self._pack_created = False
        # digest → manifests referencing it (not slots); the manifests; and
        # the records recover() found none for (a predecessor's releases,
        # crashed commits): indexed, but dropped when their pack is compacted.
        self._refcounts: Dict[bytes, int] = {}
        self._committed: Dict[str, CheckpointManifest] = {}
        self._orphans: Set[bytes] = set()
        self._quarantine_serial = itertools.count(1)
        self._temp_serial = itertools.count()
        # A handle dropped without close() still releases its descriptors.
        self._finalizer = weakref.finalize(self, _close_packs, self._packs)

    def close(self) -> None:
        """Release descriptors and index: reads and writes raise from now on."""
        with self._lock:
            self._closed = True
            self._active = None
            self._unsynced.clear()
            self._index.clear()
            self._finalizer()

    def _check_open(self) -> None:
        if self._closed:
            raise RepositoryError(f"repository {self.root} is closed")

    # --- low-level atomic writes ---------------------------------------

    def _fault(self, point: CrashPoint) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _fsync_dir(self, directory: str | Path) -> None:
        if self.fsync:
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def _create_exclusive(self, paths: Iterable[str], flags: int) -> Tuple[int, str]:
        """``(fd, path)`` of the first of ``paths`` that did not exist:
        ``O_EXCL`` steps over earlier incarnations' and siblings' files."""
        for path in paths:
            with suppress(FileExistsError):
                return os.open(path, flags | os.O_CREAT | os.O_EXCL, 0o600), path

    def _write_atomic(self, final: str, data: bytes, fault_point: CrashPoint) -> None:
        """Temp file + fsync + rename + directory fsync (manifests, sessions)."""
        directory = os.path.dirname(final)
        stem = f"{directory}/{_TMP_PREFIX}{os.getpid()}"
        fd, tmp = self._create_exclusive(
            (f"{stem}-{serial}.partial" for serial in self._temp_serial), os.O_WRONLY
        )
        try:
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view) :]
                if self.fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
            self._fault(fault_point)
            os.replace(tmp, final)
        except BaseException:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        self._fsync_dir(directory)

    def sync_pending_dirs(self) -> None:
        """The data barrier: one ``fsync`` per pack appended to since the
        last, plus one of the segments directory when a pack was created
        — however many records landed.  Everything :meth:`put_pages`
        returned for is durable once this returns."""
        with self._lock:
            self._check_open()
            if self.fsync:
                for pack in self._unsynced:
                    os.fsync(pack.fd)
                if self._pack_created:
                    self._fsync_dir(self._segments_root)
            self._unsynced.clear()
            self._pack_created = False

    # --- naming ---------------------------------------------------------

    def _pack_path(self, number: int) -> str:
        return f"{self._segments_root}/{number:06d}{_PACK_SUFFIX}"

    def _manifest_path(self, vm_id: str) -> str:
        return f"{self.manifests_dir}/{quote(vm_id, safe='')}{_MANIFEST_SUFFIX}"

    def _session_path(self, session_id: str) -> str:
        return f"{self.sessions_dir}/{quote(session_id, safe='')}{_MANIFEST_SUFFIX}"

    def _quarantine(self, path: str | Path, reason: str, record: bytes = None) -> None:
        """Move a bad file aside as ``quarantine/NNNN-<name>`` — or, given
        ``record``, write those bytes there (the pack keeps its dead copy).
        The name is claimed by creating it: evidence is never overwritten."""
        stem, name = str(self.quarantine_dir), os.path.basename(path)
        fd, target = self._create_exclusive(
            (f"{stem}/{serial:04d}-{name}" for serial in self._quarantine_serial), os.O_WRONLY
        )
        with open(fd, "wb") as evidence:
            evidence.write(record or b"")
        if record is None:
            try:
                os.replace(path, target)
            except OSError:  # pragma: no cover - best effort
                with suppress(OSError):
                    os.unlink(target)
        names.REPO_QUARANTINED.add()
        log.warning("quarantined corrupt entry", path=str(path), reason=reason)

    def _quarantine_record(self, digest: bytes, pack: _Pack, start: int, size: int) -> None:
        """Copy a bad record out as found, as ``NNNN-<digest>.page``."""
        self._quarantine(
            digest.hex() + _EVIDENCE_SUFFIX,
            f"record at {self._pack_path(pack.number)}@{start} fails its digest",
            os.pread(pack.fd, size, start),
        )

    # --- records --------------------------------------------------------

    def put_pages(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Append each new ``(digest, page)``; returns how many were new.

        Idempotent: re-putting known content is a no-op.  The batch is
        all or nothing — one filter against the index, one ``pwritev`` run,
        then indexed together — and *not* yet durable:
        :meth:`sync_pending_dirs` is the barrier.
        """
        with self._lock:
            self._check_open()
            index = self._index
            new: Dict[bytes, bytes] = {}
            for digest, page in items:
                if digest not in index and digest not in new:
                    new[digest] = page
            if new:
                self._append(list(new.items()))
                if self.fsync:
                    names.REPO_FSYNC_BATCHED.add(len(new))
            return len(new)

    def put_page(self, digest: bytes, page: bytes) -> bool:
        """:meth:`put_pages` of one item; True if newly written."""
        return self.put_pages(((digest, page),)) == 1

    def _append(self, records: List[Tuple[bytes, bytes]]) -> None:
        """Write ``records`` to this handle's own pack and index them.
        Each ``pwritev`` lands at the offset the handle accounts for; sizes
        and index move only once every record is written, so a failure (or
        a raising fault hook) leaves both untouched and the next append
        overwrites the bytes.  Caller holds the lock."""
        entries: Dict[bytes, int] = {}
        tails: Dict[_Pack, int] = {}
        for first in range(0, len(records), _RECORDS_PER_WRITE):
            pack = self._active
            if pack is None or tails.get(pack, pack.size) >= _PACK_ROLL_BYTES:
                pack = self._active = self._create_pack()
            start = offset = tails.get(pack, pack.size)
            buffers: List[bytes] = []
            for digest, page in records[first : first + _RECORDS_PER_WRITE]:
                header = _header(len(digest), len(page))
                buffers += (header, digest, page)
                offset += len(header) + len(digest)
                entries[digest] = _locate(pack.number, offset, len(page))
                offset += len(page)
            self._unsynced.add(pack)
            while buffers:
                written = os.pwritev(pack.fd, buffers, start)
                start += written
                while buffers and written >= len(buffers[0]):
                    written -= len(buffers.pop(0))
                if written:
                    buffers[0] = buffers[0][written:]
            tails[pack] = offset
        self._fault(CrashPoint.SEGMENT_WRITTEN)
        for pack, size in tails.items():
            pack.size = size
        self._index.update(entries)

    def _create_pack(self) -> _Pack:
        candidates = map(self._pack_path, itertools.count(self._next_pack))
        fd, path = self._create_exclusive(candidates, os.O_RDWR)
        number = _pack_number(os.path.basename(path))
        self._next_pack, self._pack_created = number + 1, True
        pack = self._packs[number] = _Pack(number, fd)
        return pack

    def missing(self, digests: Iterable[bytes]) -> Set[bytes]:
        """Which of ``digests`` have no record: index lookups, no I/O."""
        index = self._index
        return {digest for digest in digests if digest not in index}

    def has_page(self, digest: bytes) -> bool:
        """Whether a record exists for ``digest`` (not once quarantined or released)."""
        return digest in self._index

    def get_page(self, digest: bytes) -> Optional[bytes]:
        """The stored page bytes for ``digest``, or None."""
        with self._lock:
            self._check_open()
            entry = self._index.get(digest)
            if entry is None:
                return None
            number, offset, length = _located(entry)
            return os.pread(self._packs[number].fd, length, offset)

    def corrupt_segment(self, digest: bytes) -> bool:
        """Flip one byte of the stored record — the :mod:`repro.chaos`
        disk-corruption primitive: the record keeps its length and place
        but stops verifying, like a latent media error found by the next
        scrub.  Returns False when no such record exists."""
        with self._lock:
            data = self.get_page(digest)
            if not data:
                return False
            number, offset, _ = _located(self._index[digest])
            os.pwrite(self._packs[number].fd, bytes([data[0] ^ 0xFF]), offset)
        names.REPO_INJECTED_CORRUPTIONS.add()
        return True

    # --- refcounts ------------------------------------------------------

    def refcount(self, digest: bytes) -> int:
        """How many committed manifests reference ``digest``."""
        return self._refcounts.get(digest, 0)

    def _retain_all(self, distinct: Set[bytes]) -> None:
        refcounts = self._refcounts
        for digest in distinct:
            refcounts[digest] = refcounts.get(digest, 0) + 1
        if self._orphans:
            self._orphans -= distinct

    def _release_all(self, digests: Iterable[bytes]) -> int:
        """Release one manifest's references, forgetting records left with
        none (bookkeeping: the bytes stay until compaction); payload bytes."""
        released = 0
        for digest in set(digests):
            count = self._refcounts.get(digest, 0) - 1
            if count > 0:
                self._refcounts[digest] = count
            else:
                self._refcounts.pop(digest, None)
                released += self._drop(digest)
        if released:
            names.REPO_BYTES_RECLAIMED.add(released)
        return released

    def _drop(self, digest: bytes) -> int:
        """Forget ``digest``'s record and count it dead; its payload bytes."""
        entry = self._index.pop(digest, None)
        if entry is None:
            return 0
        self._orphans.discard(digest)
        number, _, length = _located(entry)
        self._packs[number].dead += _HEADER.size + len(digest) + length
        return length

    # --- checkpoints ----------------------------------------------------

    def commit_checkpoint(self, manifest: CheckpointManifest) -> int:
        """Atomically commit ``manifest``; pages must already be stored
        (:class:`RepositoryError` if a record is missing: the checkpoint
        could not be recovered).  Barrier, then the manifest rename — the
        commit point.  A replaced checkpoint of the same VM is released
        afterwards, so a crash in between leaves *some* checkpoint for
        the VM, never none.  Returns payload bytes released from it."""
        with self._lock:
            distinct = set(manifest.slot_digests)
            missing = self.missing(distinct)
            if missing:
                raise RepositoryError(
                    f"checkpoint {manifest.vm_id!r} references "
                    f"{len(missing)} unstored segment(s), e.g. {min(missing).hex()}"
                )
            self.sync_pending_dirs()
            self._fault(CrashPoint.SEGMENTS_SYNCED)
            path, data = self._manifest_path(manifest.vm_id), manifest.to_json().encode("utf-8")
            self._write_atomic(path, data, CrashPoint.MANIFEST_WRITTEN)
            self._fault(CrashPoint.MANIFEST_COMMITTED)
            previous = self._committed.get(manifest.vm_id)
            self._committed[manifest.vm_id] = manifest
            self._retain_all(distinct)
            return self._release_all(previous.slot_digests) if previous else 0

    def load_manifest(self, vm_id: str) -> Optional[CheckpointManifest]:
        """Parse the committed manifest for ``vm_id``, or None."""
        try:
            text = Path(self._manifest_path(vm_id)).read_text("utf-8")
        except FileNotFoundError:
            return None
        return CheckpointManifest.from_json(text)

    def delete_checkpoint(self, vm_id: str) -> int:
        """Drop the checkpoint for ``vm_id``; returns payload bytes released."""
        with self._lock:
            manifest = self._committed.pop(vm_id, None)
            with suppress(FileNotFoundError):
                os.unlink(self._manifest_path(vm_id))
            self._fsync_dir(self.manifests_dir)
            return self._release_all(manifest.slot_digests) if manifest else 0

    def list_checkpoints(self) -> List[CheckpointManifest]:
        """All committed manifests, sorted by vm_id; skips corrupt ones."""
        manifests = []
        for path in sorted(self.manifests_dir.glob("*" + _MANIFEST_SUFFIX)):
            with suppress(ValueError, KeyError, TypeError, OSError):
                manifests.append(CheckpointManifest.from_json(path.read_text("utf-8")))
        return manifests

    def checkpoint_stats(self) -> Dict[str, dict]:
        """Per-VM durable summary for the daemon's inventory report:
        vm_id → ``{"pages", "unique_pages", "stored_bytes", "timestamp",
        "distinct"}``.  ``distinct`` is the set of digests referenced
        (the report sketches it: one manifest parse serves both) and
        ``stored_bytes`` the payload size of those records (a shared
        record is billed to each checkpoint).  This is the cold path on
        which a handle learns what a sibling handle appended: unseen
        pack bytes are read first."""
        with self._lock:
            self._check_open()
            self._scan_unseen(verify=False)
            index = self._index
            stats: Dict[str, dict] = {}
            for manifest in self.list_checkpoints():
                distinct = set(manifest.slot_digests)
                stored = sum(index.get(d, 0) & _MAX_PAYLOAD for d in distinct)
                stats[manifest.vm_id] = dict(pages=manifest.num_pages, unique_pages=len(distinct),
                                             stored_bytes=stored, timestamp=manifest.timestamp,
                                             distinct=distinct)
            return stats

    def pack_stats(self) -> Dict[str, int]:
        """``packs``, ``live_bytes`` (records a committed manifest references,
        headers included), ``dead_bytes`` (the rest), ``physical_bytes``."""
        with self._lock:
            index = self._index
            live = sum(_HEADER.size + len(d) + (index[d] & _MAX_PAYLOAD)
                       for d in self._refcounts if d in index)
            physical = self.stored_bytes
            return dict(packs=len(self._packs), live_bytes=live,
                        dead_bytes=physical - live, physical_bytes=physical)

    @property
    def stored_bytes(self) -> int:
        """Physical pack bytes this handle accounts for."""
        return sum(pack.size for pack in list(self._packs.values()))

    # --- sessions -------------------------------------------------------

    def save_session(self, session_id: str, payload: dict) -> None:
        """Durably record a completed session's RESULT for replay."""
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self._write_atomic(self._session_path(session_id), data, CrashPoint.SESSION_WRITTEN)

    def drop_session(self, session_id: str) -> None:
        """Forget a persisted session result (idempotent)."""
        with suppress(FileNotFoundError):
            os.unlink(self._session_path(session_id))

    def load_sessions(self) -> Dict[str, dict]:
        """session_id → persisted payload; corrupt entries quarantined."""
        sessions: Dict[str, dict] = {}
        for path in sorted(self.sessions_dir.glob("*" + _MANIFEST_SUFFIX)):
            try:
                payload = json.loads(path.read_text("utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError("session payload is not an object")
            except (ValueError, OSError) as exc:
                self._quarantine(path, f"unreadable session: {exc}")
                continue
            sessions[unquote(path.name[: -len(_MANIFEST_SUFFIX)])] = payload
        return sessions

    # --- recovery, verification, gc ------------------------------------

    def _remove_temp_files(self) -> int:
        """Delete leftovers of writes that never reached their rename."""
        directories = (self.manifests_dir, self.sessions_dir)
        stale = [path for d in directories for path in d.glob(_TMP_PREFIX + "*")]
        for path in stale:
            path.unlink(missing_ok=True)
        return len(stale)

    def _scan_unseen(self, verify: bool) -> _Suspects:
        """Index every whole record beyond what this handle has seen.
        The first record seen for a digest is indexed; later copies,
        bytes skipped as damage and — with ``verify`` — records whose
        payload does not hash to their digest are counted dead.  Those
        last are returned, ``digest → (pack, record offset, record
        size)``, to be quarantined if a manifest needed them."""
        suspects: _Suspects = {}
        index = self._index
        for name in sorted(os.listdir(self._segments_root)):
            number = _pack_number(name)
            pack = self._packs.get(number)
            if pack is None:
                try:
                    fd = os.open(f"{self._segments_root}/{name}", os.O_RDWR)
                except FileNotFoundError:
                    continue
                pack = self._packs[number] = _Pack(number, fd)
                self._next_pack = max(self._next_pack, number + 1)
            cursor = pack.size
            while os.fstat(pack.fd).st_size > cursor:
                records, resume = _read_records(pack.fd, cursor)
                if resume == cursor:
                    break
                cursor = resume
                for offset, digest, payload in records:
                    size = _HEADER.size + len(digest) + len(payload)
                    pack.dead += offset - pack.size  # damage skipped
                    pack.size = offset + size
                    if verify and not _verifies(digest, payload):
                        suspects.setdefault(digest, (pack, offset, size))
                        pack.dead += size
                    elif digest in index:
                        pack.dead += size
                    else:
                        at = pack.size - len(payload)
                        index[digest] = _locate(number, at, len(payload))
        return suspects

    def _load_manifests(self, suspects: _Suspects) -> Tuple[List[CheckpointManifest], List[str]]:
        """Rebuild the refcounts from the manifests on disk.  One that
        does not parse, or references a digest the index lacks, is
        quarantined (with the record from ``suspects`` that failed it,
        if any).  Returns ``(kept, quarantined names)``."""
        self._refcounts = {}
        self._committed = {}
        kept: List[CheckpointManifest] = []
        quarantined: List[str] = []
        for path in sorted(self.manifests_dir.glob("*" + _MANIFEST_SUFFIX)):
            try:
                manifest = CheckpointManifest.from_json(path.read_text("utf-8"))
            except (ValueError, KeyError, TypeError, OSError) as exc:
                self._quarantine(path, f"unreadable manifest: {exc}")
                quarantined.append(path.name)
                continue
            distinct = set(manifest.slot_digests)
            missing = self.missing(distinct)
            if missing:
                bad = min(missing)
                if bad in suspects:
                    self._quarantine_record(bad, *suspects.pop(bad))
                self._quarantine(path, f"references corrupt segment {bad.hex()}")
                quarantined.append(path.name)
                continue
            self._retain_all(distinct)
            self._committed[manifest.vm_id] = manifest
            kept.append(manifest)
        return kept, quarantined

    def recover(self, verify_digests: bool = True) -> RecoveryReport:
        """Rebuild the index and refcounts from disk; quarantine corruption.

        Every whole record of every pack is indexed — with
        ``verify_digests`` only if its payload hashes to its digest, so
        neither a torn tail nor a flipped bit can be referenced later.
        A manifest needing a digest the index then lacks is quarantined
        with the offending record; per-entry damage never raises.
        Records no manifest references (a replaced checkpoint's or a
        crashed commit's) count in ``orphan_segments``, and as dead.
        """
        with self._lock:
            self._check_open()
            report = RecoveryReport()
            report.temp_files_removed = self._remove_temp_files()
            self._index.clear()
            for pack in self._packs.values():
                pack.size = pack.dead = 0
            suspects = self._scan_unseen(verify_digests)
            report.checkpoints, report.quarantined = self._load_manifests(suspects)
            report.sessions = self.load_sessions()
            self._orphans = {d for d in self._index if d not in self._refcounts}
            for digest in self._orphans:
                number, _, length = _located(self._index[digest])
                self._packs[number].dead += _HEADER.size + len(digest) + length
            report.orphan_segments = len(self._orphans)
        names.REPO_RECOVERED_CHECKPOINTS.add(report.recovered)
        if report.quarantined:
            log.warning(
                "repository recovery found damage",
                quarantined=len(report.quarantined),
                orphan_segments=report.orphan_segments,
            )
        return report

    def verify(self) -> VerifyReport:
        """The ``vecycle repo verify`` scrub.  Each indexed record (unseen
        pack bytes are read first) is read back from where the index says
        it is and must be, byte for byte, the header and digest a scan
        needs to find it plus a payload that hashes to the digest.  A
        mismatch is quarantined; manifests left referencing it follow."""
        with self._lock:
            self._check_open()
            self._scan_unseen(verify=False)
            report = VerifyReport()
            for digest, entry in sorted(self._index.items(), key=itemgetter(1)):
                number, offset, length = _located(entry)
                prefix = _header(len(digest), length) + digest
                pack, start = self._packs[number], offset - len(prefix)
                record = os.pread(pack.fd, len(prefix) + length, start)
                report.segments_checked += 1
                if record.startswith(prefix) and _verifies(digest, record[len(prefix) :]):
                    continue
                report.corrupt_segments.append(digest.hex())
                self._quarantine_record(digest, pack, start, len(prefix) + length)
                self._drop(digest)
            if report.corrupt_segments:
                report.corrupt_segments.sort()
                _, report.quarantined_manifests = self._load_manifests({})
            return report

    def gc(self) -> int:
        """Forget records no manifest references, then compact every pack
        with dead bytes — the one being appended to included, which is
        sealed first.  The live set comes from the manifests on disk
        (and unseen pack bytes are read first), so it is safe on a
        freshly opened repository.  Returns the payload bytes released.
        """
        with self._lock:
            self._check_open()
            self._scan_unseen(verify=False)
            live: Set[bytes] = set()
            for manifest in self.list_checkpoints():
                live.update(manifest.slot_digests)
            released = 0
            for digest in [d for d in self._index if d not in live]:
                self._refcounts.pop(digest, None)
                released += self._drop(digest)
            if released:
                names.REPO_BYTES_RECLAIMED.add(released)
            self._active = None
        self._compact(0.0)
        return released

    def compact(self) -> None:
        """Rewrite the sealed packs that are more than half dead — what
        the daemon's write-behind thread runs after a commit."""
        self._compact(_COMPACT_DEAD_FRACTION)

    def _compact(self, dead_fraction: float) -> None:
        with self._lock:
            self._check_open()
            victims = [p for p in self._packs.values()
                       if p is not self._active and p.dead > dead_fraction * p.size]
        for pack in victims:
            self._compact_pack(pack)

    def _compact_pack(self, pack: _Pack) -> None:
        """Move ``pack``'s indexed records to the current pack; unlink it.
        The pack is re-read a chunk at a time, under the lock per chunk so
        appends and flushes interleave; a record moves, by the ordinary
        append path, only if the index still points at it, and an orphan
        is dropped instead.  Barrier before the unlink: a crash in between
        leaves both copies; :meth:`recover` indexes one, the other is dead."""
        cursor, done = 0, False
        while not done:
            with self._lock:
                if self._closed or self._packs.get(pack.number) is not pack:
                    return
                records, resume = _read_records(pack.fd, cursor)
                done, cursor = resume == cursor, resume
                moving = []
                for offset, digest, payload in records:
                    at = offset + _HEADER.size + len(digest)
                    if self._index.get(digest) != _locate(pack.number, at, len(payload)):
                        continue
                    if digest in self._orphans:
                        self._drop(digest)
                    else:
                        moving.append((digest, payload))
                if moving:
                    self._append(moving)
                if not done:
                    continue
                self.sync_pending_dirs()
                self._fault(CrashPoint.COMPACTION_COPIED)
                # A record the chunked read could not parse (a damaged
                # header) goes with the pack: stop claiming to have it.
                stale = [d for d, e in self._index.items() if e >> 56 == pack.number]
                for digest in stale:
                    del self._index[digest]
                del self._packs[pack.number]
                os.close(pack.fd)
                with suppress(FileNotFoundError):
                    os.unlink(self._pack_path(pack.number))
