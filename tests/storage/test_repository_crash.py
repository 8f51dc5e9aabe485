"""Crash-matrix coverage: kill the repository at every fault point.

Each test arms :attr:`CheckpointRepository.fault_hook` so the write path
dies (the in-process stand-in for ``kill -9``) at one named instant
between two durable steps — records appended but no barrier yet, a
manifest temp file written but not renamed, a pack compacted but the
old one not yet unlinked — then re-opens the same directory — a fresh
process recovering after the crash — and asserts the invariant the
repository promises: *previously committed checkpoints are intact
bit-identically; at most the in-flight one is lost; corruption is
quarantined, never fatal.*  (Power loss, which can also tear what a
raised exception leaves whole, is ``test_repository_packs.py``.)

Set ``REPRO_CRASH_REPEATS`` (the CI corruption-injection job does) to
run each scenario multiple times with the fault re-armed.
"""

import os

import pytest

from repro.core.checksum import MD5
from repro.storage.repository import (
    CheckpointManifest,
    CheckpointRepository,
    CrashPoint,
)

REPEATS = max(1, int(os.environ.get("REPRO_CRASH_REPEATS", "1")))


class KillNine(BaseException):
    """Simulated hard kill: not a catchable-by-accident Exception."""


def page(tag: bytes) -> bytes:
    return (tag * 64)[:64]


def digest(tag: bytes) -> bytes:
    return MD5.digest(page(tag))


def commit(repo, vm_id, tags, timestamp=0.0, batched=False):
    digests = [digest(t) for t in tags]
    if batched:
        repo.put_pages([(d, page(tag)) for tag, d in zip(tags, digests)])
    else:
        for tag, d in zip(tags, digests):
            repo.put_page(d, page(tag))
    repo.commit_checkpoint(
        CheckpointManifest(
            vm_id=vm_id, slot_digests=digests, page_size=64, timestamp=timestamp
        )
    )
    return digests


def arm(repo, point):
    """Crash the repository the next time it reaches ``point``."""

    def hook(reached):
        if reached == point:
            raise KillNine(point)

    repo.fault_hook = hook


def assert_committed_intact(root, vm_id, tags):
    """Re-open ``root`` and check ``vm_id`` recovered bit-identically."""
    repo = CheckpointRepository(root)
    report = repo.recover()
    by_vm = {m.vm_id: m for m in report.checkpoints}
    assert vm_id in by_vm
    manifest = by_vm[vm_id]
    assert manifest.slot_digests == [digest(t) for t in tags]
    for tag in tags:
        assert repo.get_page(digest(tag)) == page(tag)
    return repo, report


@pytest.mark.parametrize("repeat", range(REPEATS))
@pytest.mark.parametrize("point", CrashPoint, ids=lambda point: point.value)
class TestCrashMatrix:
    batched = False
    """Whether records go through one ``put_pages`` call."""

    def commit(self, repo, vm_id, tags):
        return commit(repo, vm_id, tags, batched=self.batched)

    def reach(self, repo, point, vm_id, tags, ok):
        """Do what passes ``point``: a commit, a session save, or a gc
        that has an unreferenced record to drop and so a pack to compact."""
        if point == CrashPoint.SESSION_WRITTEN:
            repo.save_session("s1", {"result": {"ok": ok}})
        elif point == CrashPoint.COMPACTION_COPIED:
            repo.put_page(digest(b"never committed"), page(b"never committed"))
            repo.gc()
        else:
            self.commit(repo, vm_id, tags)

    def test_crash_loses_at_most_the_inflight_checkpoint(
        self, tmp_path, point, repeat
    ):
        repo = CheckpointRepository(tmp_path)
        self.commit(repo, "committed", [b"a", b"b"])

        arm(repo, point)
        with pytest.raises(KillNine):
            self.reach(repo, point, "inflight", [b"b", b"c"], ok=True)

        recovered, report = assert_committed_intact(
            tmp_path, "committed", [b"a", b"b"]
        )
        assert not report.quarantined
        if point == CrashPoint.MANIFEST_COMMITTED:
            # The manifest rename IS the commit: crashing after it means
            # the checkpoint survived.
            assert recovered.load_manifest("inflight") is not None
        else:
            assert recovered.load_manifest("inflight") is None
        if point == CrashPoint.SESSION_WRITTEN:
            assert report.sessions == {}
        if point == CrashPoint.COMPACTION_COPIED:
            # Both packs exist: of each committed record one copy is
            # indexed and the other dead; the record gc dropped is still
            # in the old pack, an orphan again.
            assert len(list(tmp_path.glob("segments/*.pack"))) == 2
            assert report.orphan_segments == 1
            assert recovered.gc() == 64
            assert len(list(tmp_path.glob("segments/*.pack"))) == 1
            assert recovered.pack_stats()["dead_bytes"] == 0
            assert_committed_intact(tmp_path, "committed", [b"a", b"b"])

    def test_recovery_after_crash_can_commit_again(self, tmp_path, point, repeat):
        repo = CheckpointRepository(tmp_path)
        self.commit(repo, "vm", [b"a"])
        arm(repo, point)
        with pytest.raises(KillNine):
            self.reach(repo, point, "vm2", [b"b"], ok=False)

        reborn = CheckpointRepository(tmp_path)
        reborn.recover()
        self.commit(reborn, "vm2", [b"b", b"c"])
        reborn.save_session("s1", {"result": {"ok": True}})
        final = CheckpointRepository(tmp_path)
        report = final.recover()
        assert {m.vm_id for m in report.checkpoints} == {"vm", "vm2"}
        assert report.sessions["s1"] == {"result": {"ok": True}}


class TestCrashMatrixBatched(TestCrashMatrix):
    """The same matrix with each checkpoint's records in one batch."""

    batched = True


class TestFaultMidBatch:
    def test_a_faulted_batch_is_all_or_nothing(self, tmp_path):
        """A fault between the write and the index update loses the
        whole batch from the index, and a re-put writes it once more —
        over the same bytes, so the pack holds each record once."""
        repo = CheckpointRepository(tmp_path)
        tags = [b"a", b"b", b"c", b"d"]
        batch = [(digest(t), page(t)) for t in tags]
        seen = []

        def hook(reached):
            seen.append(reached)
            raise KillNine(reached)

        repo.fault_hook = hook
        with pytest.raises(KillNine):
            repo.put_pages(batch)
        assert seen == [CrashPoint.SEGMENT_WRITTEN]
        assert [repo.has_page(digest(t)) for t in tags] == [False] * 4
        assert repo.stored_bytes == 0
        repo.fault_hook = None
        assert repo.put_pages(batch) == 4
        assert repo.put_pages(batch) == 0
        assert [repo.get_page(digest(t)) for t in tags] == [page(t) for t in tags]
        (pack,) = tmp_path.glob("segments/*.pack")
        assert pack.stat().st_size == repo.stored_bytes == 4 * (14 + 16 + 64)


class TestCrashDuringReplacement:
    """Replacing a VM's checkpoint must never leave the VM with none."""

    @pytest.mark.parametrize(
        "point", [CrashPoint.SEGMENT_WRITTEN, CrashPoint.MANIFEST_WRITTEN]
    )
    def test_old_checkpoint_survives_pre_commit_crash(self, tmp_path, point):
        repo = CheckpointRepository(tmp_path)
        commit(repo, "vm", [b"old1", b"old2"])
        arm(repo, point)
        with pytest.raises(KillNine):
            commit(repo, "vm", [b"new1", b"new2"])
        assert_committed_intact(tmp_path, "vm", [b"old1", b"old2"])

    def test_post_commit_crash_keeps_the_new_checkpoint(self, tmp_path):
        repo = CheckpointRepository(tmp_path)
        commit(repo, "vm", [b"old1"])
        arm(repo, CrashPoint.MANIFEST_COMMITTED)
        with pytest.raises(KillNine):
            commit(repo, "vm", [b"new1"])
        recovered, _ = assert_committed_intact(tmp_path, "vm", [b"new1"])
        # The replaced checkpoint's exclusive record was never released
        # (the crash beat the release); gc releases it.
        assert recovered.gc() == 64
        assert_committed_intact(tmp_path, "vm", [b"new1"])


class TestOrphanSweep:
    def test_gc_reclaims_segments_of_the_lost_checkpoint(self, tmp_path):
        repo = CheckpointRepository(tmp_path)
        commit(repo, "vm", [b"a"])
        arm(repo, CrashPoint.MANIFEST_WRITTEN)
        with pytest.raises(KillNine):
            commit(repo, "vm2", [b"b", b"c"])

        reborn = CheckpointRepository(tmp_path)
        report = reborn.recover()
        assert report.orphan_segments == 2
        assert reborn.gc() == 128
        assert reborn.get_page(digest(b"a")) == page(b"a")
