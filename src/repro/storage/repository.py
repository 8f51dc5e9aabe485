"""Durable, crash-safe on-disk checkpoint repository.

VeCycle's premise is that a checkpoint written at migration time is
*still on the source host's disk* when the VM ping-pongs back (§3.3,
"local storage is cheap and abundant").  A daemon that keeps its
checkpoints and content store purely in memory forfeits exactly that
state on every restart, so :class:`CheckpointRepository` puts both on
disk with crash-safe semantics:

* **Segments** — one file per distinct page content, named by the page's
  checksum and fanned out over 256 subdirectories
  (``segments/ab/ab12...page``).  Content addressing means a page shared
  by many checkpoints (or many VMs on a consolidation host) occupies
  one file; equality of names is equality of bytes.
* **Manifests** — one JSON file per hosted checkpoint
  (``manifests/<vm>.json``) holding the slot → digest map plus metadata.
  The manifest is the *commit point*: a checkpoint exists iff its
  manifest file exists.
* **Sessions** — completed migration results
  (``sessions/<session>.json``) so a source reconnecting after a daemon
  restart still gets its RESULT replayed idempotently.

Every file is written atomically: write to a temp file in the same
directory, ``fsync``, ``rename`` over the final name, then ``fsync`` the
directory.  A crash (``kill -9`` included) between any two steps leaves
either the old state or the new state, never a torn file — segments are
written *before* the manifest that references them, so the rename of the
manifest is the single commit point and a crash mid-checkpoint loses at
most the in-flight checkpoint.

Segment writes are *group-committed*: each segment file is fsynced
before its rename as always, but the directory fsyncs that make the
renames durable are batched and issued once per dirty fanout directory
at :meth:`CheckpointRepository.commit_checkpoint` time (the
``segments.synced`` barrier), immediately before the manifest rename.
A checkpoint of N new pages costs ~N/256 + 2 directory fsyncs instead
of N + 2, with identical crash semantics — anything a crash can unwind
was never reachable from a committed manifest.

On startup :meth:`recover` rebuilds the in-memory refcount index from
the manifests, verifies that every referenced segment exists and (when
``verify_digests``) hashes back to its name, and *quarantines* rather
than crashes on corrupt entries: a bad segment is moved to
``quarantine/`` and every manifest referencing it follows, so one
flipped bit costs one checkpoint, not the daemon.

Refcounts make retention actually free bytes: dropping the last
checkpoint that references a segment deletes the segment file
(``repo.bytes_reclaimed``).  Orphan segments from crashed mid-commit
writes are swept by :meth:`gc`.

Test hooks: :attr:`CheckpointRepository.fault_hook` is called with a
:class:`CrashPoint` (``"segment.written"``, ``"manifest.written"``, ...)
between the temp-file write and the rename; a hook that raises
simulates ``kill -9`` at exactly that instant, and re-opening the same
directory simulates the restart.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple
from urllib.parse import quote, unquote

from repro.core.checksum import ChecksumAlgorithm, MD5, get_algorithm
from repro.obs import names
from repro.obs.log import get_logger

log = get_logger(__name__)

_SEGMENT_SUFFIX = ".page"
_MANIFEST_SUFFIX = ".json"
_TMP_PREFIX = ".tmp-"


class CrashPoint(str, Enum):
    """Where :attr:`CheckpointRepository.fault_hook` is called: the
    instants between durable steps at which a ``kill -9`` matters.

    Iterating the enum is the crash matrix.  A member is its string
    (``CrashPoint.MANIFEST_WRITTEN == "manifest.written"``).
    """

    SEGMENT_WRITTEN = "segment.written"
    """Segment temp file written + fsynced, not yet renamed."""

    SEGMENTS_SYNCED = "segments.synced"
    """Batched fanout-directory fsyncs done, manifest not yet written —
    the instant between the group commit's data barrier and its commit
    point."""

    MANIFEST_WRITTEN = "manifest.written"
    """Manifest temp file written + fsynced, not yet renamed."""

    MANIFEST_COMMITTED = "manifest.committed"
    """Manifest renamed into place, directory not yet fsynced."""

    SESSION_WRITTEN = "session.written"
    """Session temp file written + fsynced, not yet renamed."""


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


class CheckpointRepository:
    """Content-addressed segment files + atomic per-checkpoint manifests.

    Args:
        root: State directory; created (with subdirectories) if absent.
        fsync: Durability barriers on every write.  Tests may disable
            them for speed; the write *ordering* (temp → rename) is kept
            either way.
        group_commit: Batch segment *directory* fsyncs per checkpoint.
            Each segment file is still fsynced before its rename (bytes
            are durable before the manifest can reference them), but the
            fanout-directory fsync that makes the rename itself durable
            is deferred and issued once per dirty directory by
            :meth:`sync_pending_dirs` — which :meth:`commit_checkpoint`
            calls right before writing the manifest.  Ordering is
            unchanged: data barrier, then the manifest-rename commit
            point.  A crash before the batch fsync can lose segment
            renames, but only ones no committed manifest references.
    """

    def __init__(
        self, root: Path | str, fsync: bool = True, group_commit: bool = True
    ) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.manifests_dir = self.root / "manifests"
        self.sessions_dir = self.root / "sessions"
        self.quarantine_dir = self.root / "quarantine"
        for directory in (
            self.root,
            self.segments_dir,
            self.manifests_dir,
            self.sessions_dir,
            self.quarantine_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.group_commit = group_commit
        self.fault_hook: Optional[Callable[[CrashPoint], None]] = None
        # digest → number of manifests referencing it (not per-slot).
        self._refcounts: Dict[bytes, int] = {}
        self._quarantine_serial = 0
        # The per-page paths below are plain strings handled by ``os``
        # calls: a pathlib object per segment cost more than the write.
        self._segments_root = str(self.segments_dir)
        self._temp_serial = itertools.count()
        # Fanout directories whose segment renames await their batched
        # fsync (group commit); drained by sync_pending_dirs().
        self._pending_dir_syncs: set[str] = set()

    # --- low-level atomic writes ---------------------------------------

    def _fault(self, point: CrashPoint) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _fsync_dir(self, directory: str | Path) -> None:
        if not self.fsync:
            return
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _open_temp(self, directory: str) -> Tuple[int, str]:
        """Create a fresh ``.tmp-`` file in ``directory``: (fd, path).

        The name comes from the process id and a counter, never from
        what is being written: two writers of the same content (the
        write-behind thread and a ``flush_sync`` overtaking it) must not
        share a temp file.  ``O_EXCL`` steps over a leftover of an
        earlier process with the same pid; a missing fan-out directory
        is created on first use.
        """
        while True:
            path = (
                f"{directory}/{_TMP_PREFIX}{os.getpid()}-"
                f"{next(self._temp_serial)}.partial"
            )
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            except FileExistsError:
                continue
            except FileNotFoundError:
                os.makedirs(directory, exist_ok=True)
                continue
            return fd, path

    def _write_atomic(
        self,
        final: str,
        data: bytes,
        fault_point: Optional[CrashPoint] = None,
        defer_dir_sync: bool = False,
    ) -> None:
        """Temp file + fsync + rename + directory fsync.

        With ``defer_dir_sync`` the trailing directory fsync is queued
        for :meth:`sync_pending_dirs` instead of issued inline (the
        group-commit path for segment writes).
        """
        directory = os.path.dirname(final)
        defer_dir_sync = defer_dir_sync and self.fsync
        fd, tmp = self._open_temp(directory)
        try:
            try:
                view = memoryview(data)
                while view:
                    written = os.write(fd, view)
                    view = view[written:]
                if self.fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
            if fault_point is not None:
                self._fault(fault_point)
            if defer_dir_sync:
                # Queued before the rename: whoever sees the final name
                # then also finds its directory awaiting the barrier.
                self._pending_dir_syncs.add(directory)
            os.replace(tmp, final)
        except BaseException:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        if defer_dir_sync:
            names.REPO_FSYNC_BATCHED.add()
        else:
            self._fsync_dir(directory)

    def sync_pending_dirs(self) -> int:
        """Issue the deferred directory fsyncs; returns how many.

        One fsync per dirty fanout directory, no matter how many
        segments landed in it since the last batch — the group-commit
        data barrier.
        """
        pending, self._pending_dir_syncs = self._pending_dir_syncs, set()
        for directory in sorted(pending):
            self._fsync_dir(directory)
        return len(pending)

    # --- naming ---------------------------------------------------------

    def _segment_path(self, digest: bytes) -> str:
        name = digest.hex()
        return f"{self._segments_root}/{name[:2]}/{name}{_SEGMENT_SUFFIX}"

    def _manifest_path(self, vm_id: str) -> str:
        return f"{self.manifests_dir}/{quote(vm_id, safe='')}{_MANIFEST_SUFFIX}"

    def _session_path(self, session_id: str) -> str:
        return f"{self.sessions_dir}/{quote(session_id, safe='')}{_MANIFEST_SUFFIX}"

    def _quarantine(self, path: str | Path, reason: str) -> None:
        """Move a bad file aside; never raises, never deletes evidence."""
        self._quarantine_serial += 1
        name = os.path.basename(path)
        target = self.quarantine_dir / f"{self._quarantine_serial:04d}-{name}"
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - best effort
            with suppress(FileNotFoundError):
                os.unlink(path)
        names.REPO_QUARANTINED.add()
        log.warning("quarantined corrupt entry", path=str(path), reason=reason)

    # --- segments -------------------------------------------------------

    def put_pages(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Durably store each ``(digest, page)``; returns how many were new.

        Idempotent: re-putting existing content is a no-op, so a resumed
        migration or a recovering daemon can replay puts freely.  Every
        new segment is its own atomic write (temp file, file fsync,
        rename); under group commit the fanout-directory fsyncs are
        deferred to the next :meth:`commit_checkpoint` /
        :meth:`sync_pending_dirs`.

        A failing write does not stop the batch: the remaining items
        are still attempted and the first error is raised afterwards
        (fault hooks raise ``BaseException``, hence the wide catch).
        """
        written = 0
        error: Optional[BaseException] = None
        for digest, page in items:
            final = self._segment_path(digest)
            if os.path.exists(final):
                continue
            try:
                self._write_atomic(
                    final,
                    page,
                    fault_point=CrashPoint.SEGMENT_WRITTEN,
                    defer_dir_sync=self.group_commit,
                )
            except BaseException as exc:
                if error is None:
                    error = exc
            else:
                written += 1
        if error is not None:
            raise error
        return written

    def put_page(self, digest: bytes, page: bytes) -> bool:
        """:meth:`put_pages` of one item; True if newly written."""
        return self.put_pages(((digest, page),)) == 1

    def has_segment(self, digest: bytes) -> bool:
        """Whether a durable segment exists for ``digest``.

        A segment quarantined by :meth:`verify` no longer exists; a
        daemon about to commit a manifest uses this to re-spill any
        referenced content it still holds resident.
        """
        return os.path.exists(self._segment_path(digest))

    def corrupt_segment(self, digest: bytes) -> bool:
        """Flip one byte of the stored segment (fault injection only).

        The deterministic disk-corruption primitive of the
        :mod:`repro.chaos` fault plane: the segment keeps its length and
        location but stops verifying, exactly like a latent media error
        discovered on the next scrub.  Returns False when no such
        segment exists.
        """
        data = self.get_page(digest)
        if not data:
            return False
        with open(self._segment_path(digest), "wb") as handle:
            handle.write(bytes([data[0] ^ 0xFF]) + data[1:])
        names.REPO_INJECTED_CORRUPTIONS.add()
        return True

    def get_page(self, digest: bytes) -> Optional[bytes]:
        """The stored page bytes for ``digest``, or None."""
        try:
            with open(self._segment_path(digest), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def has_page(self, digest: bytes) -> bool:
        """Whether a committed segment exists for ``digest``."""
        return os.path.exists(self._segment_path(digest))

    def _iter_segments(self) -> Iterator[bytes]:
        """The digest of every segment file, in sorted order."""
        for fan in sorted(os.listdir(self._segments_root)):
            directory = f"{self._segments_root}/{fan}"
            if not os.path.isdir(directory):
                continue
            for name in sorted(os.listdir(directory)):
                if name.endswith(_SEGMENT_SUFFIX):
                    yield bytes.fromhex(name[: -len(_SEGMENT_SUFFIX)])

    # --- refcounts ------------------------------------------------------

    def refcount(self, digest: bytes) -> int:
        """How many committed manifests reference ``digest``."""
        return self._refcounts.get(digest, 0)

    def _retain_all(self, digests) -> None:
        for digest in set(digests):
            self._refcounts[digest] = self._refcounts.get(digest, 0) + 1

    def _release_all(self, digests) -> int:
        """Release one manifest's references; delete dead segments.

        Returns the number of segment bytes actually reclaimed.
        """
        reclaimed = 0
        for digest in set(digests):
            count = self._refcounts.get(digest, 0) - 1
            if count > 0:
                self._refcounts[digest] = count
                continue
            self._refcounts.pop(digest, None)
            reclaimed += self._delete_segment(digest)
        if reclaimed:
            names.REPO_BYTES_RECLAIMED.add(reclaimed)
        return reclaimed

    def _delete_segment(self, digest: bytes) -> int:
        path = self._segment_path(digest)
        try:
            size = os.stat(path).st_size
            os.unlink(path)
        except FileNotFoundError:
            return 0
        return size

    # --- checkpoints ----------------------------------------------------

    def commit_checkpoint(self, manifest: CheckpointManifest) -> int:
        """Atomically commit ``manifest``; pages must already be stored.

        The manifest rename is the commit point.  Replacing an earlier
        checkpoint of the same VM releases its references afterwards, so
        a crash in between leaves *some* committed checkpoint for the
        VM, never none.  Returns segment bytes reclaimed from the
        replaced checkpoint.

        Raises:
            RepositoryError: if a referenced segment is missing — the
                caller forgot :meth:`put_page`, and committing would
                create a checkpoint that cannot be recovered.
        """
        distinct = set(manifest.slot_digests)
        missing = sorted(d for d in distinct if not self.has_page(d))
        if missing:
            raise RepositoryError(
                f"checkpoint {manifest.vm_id!r} references "
                f"{len(missing)} unstored segment(s), e.g. {missing[0].hex()}"
            )
        # Group-commit data barrier: every deferred fanout-directory
        # fsync lands here, once per dirty directory, before the
        # manifest rename can make the checkpoint reachable.
        self.sync_pending_dirs()
        self._fault(CrashPoint.SEGMENTS_SYNCED)
        previous = self.load_manifest(manifest.vm_id)
        self._write_atomic(
            self._manifest_path(manifest.vm_id),
            manifest.to_json().encode("utf-8"),
            fault_point=CrashPoint.MANIFEST_WRITTEN,
        )
        self._fault(CrashPoint.MANIFEST_COMMITTED)
        self._retain_all(distinct)
        reclaimed = 0
        if previous is not None:
            reclaimed = self._release_all(previous.slot_digests)
        return reclaimed

    def load_manifest(self, vm_id: str) -> Optional[CheckpointManifest]:
        """Parse the committed manifest for ``vm_id``, or None."""
        try:
            with open(self._manifest_path(vm_id), encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        return CheckpointManifest.from_json(text)

    def delete_checkpoint(self, vm_id: str) -> int:
        """Drop the checkpoint for ``vm_id``; returns bytes reclaimed."""
        manifest = self.load_manifest(vm_id)
        if manifest is None:
            return 0
        with suppress(FileNotFoundError):
            os.unlink(self._manifest_path(vm_id))
        self._fsync_dir(self.manifests_dir)
        return self._release_all(manifest.slot_digests)

    def list_checkpoints(self) -> List[CheckpointManifest]:
        """All committed manifests, sorted by vm_id; skips corrupt ones."""
        manifests = []
        for path in sorted(self.manifests_dir.glob("*" + _MANIFEST_SUFFIX)):
            try:
                manifests.append(CheckpointManifest.from_json(path.read_text("utf-8")))
            except (ValueError, KeyError, TypeError, OSError):
                continue
        return manifests

    def checkpoint_stats(self) -> Dict[str, dict]:
        """Per-VM durable summary feeding the daemon's inventory report.

        Maps vm_id → ``{"pages", "unique_pages", "stored_bytes",
        "timestamp"}`` where ``stored_bytes`` is the on-disk size of the
        distinct segments the checkpoint references (a segment shared by
        several checkpoints is billed to each — this is an inventory
        summary, not an accounting of disk usage).  Segment sizes are
        stat'd once per distinct digest.
        """
        stats: Dict[str, dict] = {}
        sizes: Dict[bytes, int] = {}
        for manifest in self.list_checkpoints():
            distinct = set(manifest.slot_digests)
            stored = 0
            for digest in distinct:
                size = sizes.get(digest)
                if size is None:
                    try:
                        size = os.stat(self._segment_path(digest)).st_size
                    except OSError:
                        size = 0
                    sizes[digest] = size
                stored += size
            stats[manifest.vm_id] = {
                "pages": manifest.num_pages,
                "unique_pages": len(distinct),
                "stored_bytes": stored,
                "timestamp": manifest.timestamp,
            }
        return stats

    # --- sessions -------------------------------------------------------

    def save_session(self, session_id: str, payload: dict) -> None:
        """Durably record a completed session's RESULT for replay."""
        self._write_atomic(
            self._session_path(session_id),
            json.dumps(payload, separators=(",", ":")).encode("utf-8"),
            fault_point=CrashPoint.SESSION_WRITTEN,
        )

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
        directories = [str(self.manifests_dir), str(self.sessions_dir)]
        directories += (
            f"{self._segments_root}/{fan}"
            for fan in os.listdir(self._segments_root)
        )
        removed = 0
        for directory in directories:
            if not os.path.isdir(directory):
                continue
            for name in os.listdir(directory):
                if name.startswith(_TMP_PREFIX):
                    with suppress(FileNotFoundError):
                        os.unlink(f"{directory}/{name}")
                    removed += 1
        return removed

    def recover(self, verify_digests: bool = True) -> RecoveryReport:
        """Rebuild the refcount index from disk; quarantine corruption.

        Every committed manifest is parsed and its referenced segments
        checked for existence; with ``verify_digests`` each referenced
        segment is also re-hashed and compared against its name.  A
        manifest that fails any check is quarantined along with the
        offending segment — recovery never raises on per-entry damage.
        """
        report = RecoveryReport()
        report.temp_files_removed = self._remove_temp_files()
        self._refcounts = {}
        checked: Dict[bytes, bool] = {}
        for path in sorted(self.manifests_dir.glob("*" + _MANIFEST_SUFFIX)):
            try:
                manifest = CheckpointManifest.from_json(path.read_text("utf-8"))
            except (ValueError, KeyError, TypeError, OSError) as exc:
                self._quarantine(path, f"unreadable manifest: {exc}")
                report.quarantined.append(path.name)
                continue
            algorithm = get_algorithm(manifest.algorithm)
            bad = self._check_segments(
                manifest, algorithm, checked, verify_digests
            )
            if bad is not None:
                self._quarantine(path, f"references corrupt segment {bad.hex()}")
                report.quarantined.append(path.name)
                continue
            self._retain_all(manifest.slot_digests)
            report.checkpoints.append(manifest)
        report.sessions = self.load_sessions()
        report.orphan_segments = sum(
            1
            for digest in self._iter_segments()
            if digest not in self._refcounts
        )
        names.REPO_RECOVERED_CHECKPOINTS.add(report.recovered)
        if report.quarantined or report.orphan_segments:
            log.warning(
                "repository recovery found damage",
                quarantined=len(report.quarantined),
                orphan_segments=report.orphan_segments,
            )
        return report

    def _check_segments(
        self,
        manifest: CheckpointManifest,
        algorithm: ChecksumAlgorithm,
        checked: Dict[bytes, bool],
        verify_digests: bool,
    ) -> Optional[bytes]:
        """First corrupt/missing digest referenced by ``manifest``, or None.

        A corrupt segment is quarantined on first sight; the verdict is
        memoized so shared segments are hashed once per recovery.
        """
        for digest in manifest.unique_digests:
            verdict = checked.get(digest)
            if verdict is None:
                page = self.get_page(digest)
                if page is None:
                    verdict = False
                elif verify_digests and algorithm.digest(page) != digest:
                    self._quarantine(
                        self._segment_path(digest), "segment digest mismatch"
                    )
                    verdict = False
                else:
                    verdict = True
                checked[digest] = verdict
            if not verdict:
                return digest
        return None

    def verify(self) -> VerifyReport:
        """Audit every segment against its name; quarantine mismatches.

        Unlike :meth:`recover` (which only hashes *referenced*
        segments), this walks the whole segment tree — the
        ``vecycle repo verify`` scrub.  Manifests left referencing a
        quarantined segment are quarantined too.
        """
        report = VerifyReport()
        algorithms = {m.algorithm for m in self.list_checkpoints()} or {MD5.name}
        by_size = {
            get_algorithm(name).digest_size: get_algorithm(name)
            for name in algorithms
        }
        corrupt: set[bytes] = set()
        for digest in list(self._iter_segments()):
            report.segments_checked += 1
            algorithm = by_size.get(len(digest), MD5)
            try:
                page = self.get_page(digest)
            except OSError:
                page = None
            if page is None or algorithm.digest(page) != digest:
                corrupt.add(digest)
                report.corrupt_segments.append(digest.hex())
                self._quarantine(
                    self._segment_path(digest), "segment digest mismatch"
                )
        if corrupt:
            for path in sorted(self.manifests_dir.glob("*" + _MANIFEST_SUFFIX)):
                try:
                    manifest = CheckpointManifest.from_json(path.read_text("utf-8"))
                except (ValueError, KeyError, TypeError, OSError):
                    continue
                if corrupt.intersection(manifest.slot_digests):
                    self._quarantine(path, "references corrupt segment")
                    report.quarantined_manifests.append(path.name)
        if report.quarantined_manifests:
            # Segments stranded by the quarantined manifests are swept
            # by gc(); refcounts are rebuilt by the next recover().
            self.recover(verify_digests=False)
        return report

    def gc(self) -> int:
        """Delete unreferenced segments (orphans of crashed commits).

        Recomputes the live set from the committed manifests, so it is
        safe to run on a freshly opened repository.  Returns bytes
        reclaimed.
        """
        live: set[bytes] = set()
        for manifest in self.list_checkpoints():
            live.update(manifest.slot_digests)
        reclaimed = 0
        for digest in list(self._iter_segments()):
            if digest not in live:
                reclaimed += self._delete_segment(digest)
        if reclaimed:
            names.REPO_BYTES_RECLAIMED.add(reclaimed)
        return reclaimed

    @property
    def stored_bytes(self) -> int:
        """Total segment bytes currently on disk."""
        return sum(
            os.stat(self._segment_path(digest)).st_size
            for digest in self._iter_segments()
        )
