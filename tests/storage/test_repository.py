"""Unit tests for the durable checkpoint repository."""

import gc
import hashlib
import json
import os
import struct
import zlib

import pytest

from repro.core import checksum
from repro.core.checksum import MD5, SHA256_128, ChecksumAlgorithm
from repro.obs.metrics import get_registry
from repro.storage.repository import (
    CheckpointManifest,
    CheckpointRepository,
    RepositoryError,
)


def page(tag: bytes, size: int = 64) -> bytes:
    return (tag * size)[:size]


def digest(tag: bytes, size: int = 64) -> bytes:
    return MD5.digest(page(tag, size))


def put_pages(repo, *tags):
    digests = []
    for tag in tags:
        d = digest(tag)
        repo.put_page(d, page(tag))
        digests.append(d)
    return digests


def commit(repo, vm_id, tags, timestamp=0.0):
    digests = put_pages(repo, *tags)
    repo.commit_checkpoint(
        CheckpointManifest(
            vm_id=vm_id,
            slot_digests=digests,
            page_size=64,
            timestamp=timestamp,
        )
    )
    return digests


class TestManifestFormat:
    def test_roundtrip_preserves_slots_and_metadata(self):
        digests = [digest(b"a"), digest(b"b"), digest(b"a")]
        manifest = CheckpointManifest(
            vm_id="vm/odd name",
            slot_digests=digests,
            page_size=64,
            timestamp=123.5,
        )
        restored = CheckpointManifest.from_json(manifest.to_json())
        assert restored == manifest

    def test_duplicate_slots_stored_once(self):
        manifest = CheckpointManifest(
            vm_id="vm", slot_digests=[digest(b"a")] * 100, page_size=64
        )
        data = json.loads(manifest.to_json())
        assert len(data["digests"]) == 1
        assert len(data["slots"]) == 100

    def test_bad_version_rejected(self):
        data = json.loads(
            CheckpointManifest(vm_id="vm", slot_digests=[digest(b"a")]).to_json()
        )
        data["version"] = 99
        with pytest.raises(ValueError):
            CheckpointManifest.from_json(json.dumps(data))

    def test_out_of_range_slot_rejected(self):
        data = json.loads(
            CheckpointManifest(vm_id="vm", slot_digests=[digest(b"a")]).to_json()
        )
        data["slots"] = [5]
        with pytest.raises(ValueError):
            CheckpointManifest.from_json(json.dumps(data))


class TestSegments:
    def test_put_get_roundtrip(self, tmp_path):
        repo = CheckpointRepository(tmp_path)
        d = digest(b"x")
        assert repo.put_page(d, page(b"x")) is True
        assert repo.put_page(d, page(b"x")) is False  # idempotent
        assert repo.get_page(d) == page(b"x")
        assert repo.has_page(d)
        assert repo.get_page(digest(b"y")) is None

    def test_commit_requires_stored_pages(self, tmp_path):
        repo = CheckpointRepository(tmp_path)
        with pytest.raises(RepositoryError):
            repo.commit_checkpoint(
                CheckpointManifest(vm_id="vm", slot_digests=[digest(b"nope")])
            )


class TestRefcountsAndReclaim:
    def test_replacing_checkpoint_frees_exclusive_segments(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm", [b"a", b"b"])
        old_exclusive = digest(b"a")
        shared = digest(b"b")
        commit(repo, "vm", [b"b", b"c"])
        assert not repo.has_page(old_exclusive)
        assert repo.has_page(shared)
        assert repo.has_page(digest(b"c"))

    def test_shared_segment_survives_until_last_reference(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm1", [b"s", b"1"])
        commit(repo, "vm2", [b"s", b"2"])
        shared = digest(b"s")
        assert repo.delete_checkpoint("vm1") > 0
        assert repo.has_page(shared)  # vm2 still references it
        assert not repo.has_page(digest(b"1"))
        assert repo.delete_checkpoint("vm2") > 0
        assert not repo.has_page(shared)

    def test_reclaim_counter_tracks_freed_bytes(self, tmp_path):
        registry = get_registry()
        before = registry.counter("repo.bytes_reclaimed").value
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm", [b"a", b"b"])
        freed = repo.delete_checkpoint("vm")
        assert freed == 128
        assert registry.counter("repo.bytes_reclaimed").value == before + 128

    def test_gc_sweeps_orphan_segments(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm", [b"a"])
        put_pages(repo, b"orphan1", b"orphan2")  # never committed
        assert repo.gc() == 128
        assert repo.has_page(digest(b"a"))
        assert not repo.has_page(digest(b"orphan1"))


class TestRecovery:
    def test_reopen_recovers_committed_checkpoints(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm1", [b"a", b"b"], timestamp=10.0)
        commit(repo, "vm2", [b"b", b"c"], timestamp=20.0)

        reopened = CheckpointRepository(tmp_path, fsync=False)
        report = reopened.recover()
        assert report.recovered == 2
        assert not report.quarantined
        by_vm = {m.vm_id: m for m in report.checkpoints}
        assert by_vm["vm1"].slot_digests == [digest(b"a"), digest(b"b")]
        assert by_vm["vm1"].timestamp == 10.0
        assert reopened.refcount(digest(b"b")) == 2
        # Page bytes identical after the round trip.
        assert reopened.get_page(digest(b"c")) == page(b"c")

    def test_corrupt_segment_quarantined_not_fatal(self, tmp_path):
        registry = get_registry()
        before = registry.counter("repo.quarantined").value
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "good", [b"g"])
        commit(repo, "bad", [b"x", b"y"])
        assert repo.corrupt_segment(digest(b"x"))

        reopened = CheckpointRepository(tmp_path, fsync=False)
        report = reopened.recover()
        assert [m.vm_id for m in report.checkpoints] == ["good"]
        # Record + manifest both quarantined, evidence preserved.
        assert len(report.quarantined) == 1
        assert registry.counter("repo.quarantined").value >= before + 2
        evidence = sorted(p.name for p in reopened.quarantine_dir.iterdir())
        assert evidence == [f"0001-{digest(b'x').hex()}.page", "0002-bad.json"]
        assert reopened.load_manifest("bad") is None
        assert not reopened.has_page(digest(b"x"))

    def test_unparseable_manifest_quarantined(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "good", [b"g"])
        (repo.manifests_dir / "junk.json").write_text("{not json", "utf-8")
        report = CheckpointRepository(tmp_path, fsync=False).recover()
        assert report.recovered == 1
        assert report.quarantined == ["junk.json"]

    def test_recover_removes_stale_temp_files(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        (repo.manifests_dir / ".tmp-stale.partial").write_bytes(b"half")
        report = repo.recover()
        assert report.temp_files_removed == 1
        assert not list(repo.manifests_dir.glob(".tmp-*"))

    def test_recovered_counter(self, tmp_path):
        registry = get_registry()
        before = registry.counter("repo.recovered_checkpoints").value
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm1", [b"a"])
        CheckpointRepository(tmp_path, fsync=False).recover()
        assert (
            registry.counter("repo.recovered_checkpoints").value == before + 1
        )


class TestVerify:
    def test_full_scrub_quarantines_corruption(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm", [b"a", b"b"])
        assert repo.corrupt_segment(digest(b"b"))
        repo.recover(verify_digests=False)
        report = repo.verify()
        assert not report.ok
        assert report.corrupt_segments == [digest(b"b").hex()]
        assert len(report.quarantined_manifests) == 1

    def test_clean_repository_verifies(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm", [b"a", b"b"])
        report = repo.verify()
        assert report.ok
        assert report.segments_checked == 2


class TestSessions:
    def test_session_roundtrip(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        payload = {"vm_id": "vm", "result": {"ok": True}, "rounds": 2}
        repo.save_session("migration/7", payload)
        assert repo.load_sessions() == {"migration/7": payload}
        repo.drop_session("migration/7")
        assert repo.load_sessions() == {}

    def test_corrupt_session_quarantined(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        repo.save_session("good", {"result": None})
        (repo.sessions_dir / "bad.json").write_text("[broken", "utf-8")
        assert set(repo.load_sessions()) == {"good"}


class TestHostileNames:
    def test_path_hostile_vm_id_stays_inside_repository(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        vm_id = "../../../etc/passwd"
        commit(repo, vm_id, [b"a"])
        manifests = list(repo.manifests_dir.glob("*.json"))
        assert len(manifests) == 1
        assert manifests[0].parent == repo.manifests_dir
        restored = CheckpointRepository(tmp_path, fsync=False).recover()
        assert [m.vm_id for m in restored.checkpoints] == [vm_id]


class TestQuarantine:
    def test_two_incarnations_never_overwrite_each_others_evidence(self, tmp_path):
        for _incarnation in range(2):
            repo = CheckpointRepository(tmp_path, fsync=False)
            (repo.manifests_dir / "vm.json").write_text("{not json", "utf-8")
            assert repo.recover().quarantined == ["vm.json"]
        evidence = sorted(p.name for p in repo.quarantine_dir.iterdir())
        assert evidence == ["0001-vm.json", "0002-vm.json"]

    def test_verify_leaves_the_startup_counter_alone(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "good", [b"g"])
        commit(repo, "bad", [b"x", b"y"])
        assert repo.corrupt_segment(digest(b"x"))
        recovered = get_registry().counter("repo.recovered_checkpoints")
        before = recovered.value
        report = repo.verify()
        assert report.quarantined_manifests == ["bad.json"]
        assert recovered.value == before
        # The survivor's references were rebuilt all the same.
        assert repo.refcount(digest(b"g")) == 1 and repo.refcount(digest(b"y")) == 0
        assert repo.verify().ok


class TestMixedAlgorithms:
    """Records of two 16-byte algorithms side by side — what a state
    directory written before and after a change of default holds.  A
    record carries no algorithm name; each verifies under its own."""

    @staticmethod
    def mixed(tmp_path, newer=SHA256_128):
        repo = CheckpointRepository(tmp_path, fsync=False)
        digests = {}
        for vm_id, algorithm, tags in (("before", MD5, b"ab"), ("after", newer, b"cd")):
            pages = [page(bytes([tag])) for tag in tags]
            digests[vm_id] = list(map(algorithm.digest, pages))
            repo.put_pages(zip(digests[vm_id], pages))
            repo.commit_checkpoint(
                CheckpointManifest(
                    vm_id=vm_id, slot_digests=digests[vm_id],
                    algorithm=algorithm.name, page_size=64,
                )
            )
        repo.close()
        return digests

    def test_recovers_and_scrubs_clean(self, tmp_path):
        self.mixed(tmp_path)
        repo = CheckpointRepository(tmp_path, fsync=False)
        report = repo.recover(verify_digests=True)
        assert sorted(m.vm_id for m in report.checkpoints) == ["after", "before"]
        assert not report.quarantined
        scrub = repo.verify()
        assert scrub.ok and scrub.segments_checked == 4

    def test_an_algorithm_registered_later_verifies(self, tmp_path, monkeypatch):
        later = ChecksumAlgorithm(
            name="sha512-128", digest_size=16, throughput=1.0,
            func=lambda data: hashlib.sha512(data).digest()[:16],
        )
        monkeypatch.setitem(checksum._REGISTRY, later.name, later)
        self.mixed(tmp_path, newer=later)
        repo = CheckpointRepository(tmp_path, fsync=False)
        assert not repo.recover(verify_digests=True).quarantined
        assert repo.verify().ok

    @pytest.mark.parametrize("damaged", ["before", "after"])
    @pytest.mark.parametrize("found_by", ["recover", "verify"])
    def test_a_flipped_byte_in_either_is_quarantined(self, tmp_path, damaged, found_by):
        digests = self.mixed(tmp_path)
        victim = digests[damaged][1]
        repo = CheckpointRepository(tmp_path, fsync=False)
        repo.recover()
        assert repo.corrupt_segment(victim)
        repo.close()
        repo = CheckpointRepository(tmp_path, fsync=False)
        report = repo.recover(verify_digests=found_by == "recover")
        if found_by == "verify":
            assert repo.verify().corrupt_segments == [victim.hex()]
        else:
            assert report.quarantined == [f"{damaged}.json"]
        assert repo.load_manifest(damaged) is None
        assert repo.load_manifest({"before": "after", "after": "before"}[damaged])


def open_descriptors_under(root):
    links = []
    for name in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{name}"))
        except OSError:
            continue
    return [link for link in links if link.startswith(str(root))]


class TestHandleLifetime:
    def test_close_releases_descriptors_and_later_use_raises(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm", [b"a"])
        assert open_descriptors_under(tmp_path)
        repo.close()
        assert not open_descriptors_under(tmp_path)
        with pytest.raises(RepositoryError):
            repo.put_page(digest(b"b"), page(b"b"))
        with pytest.raises(RepositoryError):
            repo.get_page(digest(b"a"))
        repo.close()  # idempotent

    def test_a_dropped_handle_releases_its_descriptors(self, tmp_path):
        repo = CheckpointRepository(tmp_path, fsync=False)
        commit(repo, "vm", [b"a"])
        del repo
        gc.collect()
        assert not open_descriptors_under(tmp_path)


class TestOnDiskLayout:
    """The layout is a contract between commits sharing a state directory.

    The pack record and the manifest keys are spelled out here with
    ``struct``, ``pathlib`` and ``json`` alone, so a change of layout
    has to change this test.
    """

    TAGS = [b"a", b"b", b"a"]

    @staticmethod
    def record(tag):
        lengths = struct.pack("<4sHI", b"VCPK", 16, 64)
        return lengths + struct.pack("<I", zlib.crc32(lengths)) + digest(tag) + page(tag)

    def reference_write(self, root, vm_id):
        """A state directory as a reference writer lays it out."""
        table = []
        for tag in self.TAGS:
            if digest(tag).hex() not in table:
                table.append(digest(tag).hex())
        (root / "segments").mkdir(parents=True, exist_ok=True)
        (root / "segments" / "000000.pack").write_bytes(
            b"".join(self.record(tag) for tag in (b"a", b"b"))
        )
        manifest = {
            "version": 1,
            "vm_id": vm_id,
            "algorithm": "md5",
            "page_size": 64,
            "timestamp": 7.0,
            "generation": 3,
            "digests": table,
            "slots": [table.index(digest(t).hex()) for t in self.TAGS],
        }
        (root / "manifests").mkdir(parents=True, exist_ok=True)
        (root / "manifests" / (vm_id + ".json")).write_text(
            json.dumps(manifest), "utf-8"
        )

    @staticmethod
    def reference_read(root):
        """digest → payload of every record, the way any reader must."""
        contents = {}
        for path in sorted((root / "segments").glob("*.pack")):
            data, at = path.read_bytes(), 0
            while at < len(data):
                magic, digest_length, payload_length, crc = struct.unpack_from(
                    "<4sHII", data, at
                )
                assert magic == b"VCPK" and crc == zlib.crc32(data[at : at + 10])
                body = at + 14 + digest_length
                contents[data[at + 14 : body]] = data[body : body + payload_length]
                at = body + payload_length
        return contents

    def test_reference_directory_recovers(self, tmp_path):
        self.reference_write(tmp_path, "vm")
        repo = CheckpointRepository(tmp_path, fsync=False)
        report = repo.recover()
        assert not report.quarantined and report.orphan_segments == 0
        (manifest,) = report.checkpoints
        assert manifest.slot_digests == [digest(t) for t in self.TAGS]
        assert (manifest.generation, manifest.timestamp) == (3, 7.0)
        assert repo.get_page(digest(b"b")) == page(b"b")
        assert repo.verify().ok

    def test_written_directory_matches_the_reference(self, tmp_path):
        ours, reference = tmp_path / "ours", tmp_path / "reference"
        repo = CheckpointRepository(ours)
        repo.put_pages([(digest(t), page(t)) for t in self.TAGS])
        repo.commit_checkpoint(
            CheckpointManifest(
                vm_id="vm",
                slot_digests=[digest(t) for t in self.TAGS],
                page_size=64,
                timestamp=7.0,
                generation=3,
            )
        )
        self.reference_write(reference, "vm")

        def files(root):
            return {
                str(path.relative_to(root)): path.read_bytes()
                for path in root.rglob("*")
                if path.is_file()
            }

        written, expected = files(ours), files(reference)
        assert written.keys() == expected.keys()
        for name in expected:
            if name.endswith(".json"):
                assert json.loads(written[name]) == json.loads(expected[name])
            else:
                assert written[name] == expected[name]
        assert self.reference_read(ours) == {
            digest(t): page(t) for t in self.TAGS
        }

    def test_file_per_page_directory_is_refused(self, tmp_path):
        name = digest(b"a").hex()
        old = tmp_path / "segments" / name[:2] / (name + ".page")
        old.parent.mkdir(parents=True)
        old.write_bytes(page(b"a"))
        with pytest.raises(RepositoryError, match="file-per-page"):
            CheckpointRepository(tmp_path)
        assert old.read_bytes() == page(b"a")  # refused, not touched
