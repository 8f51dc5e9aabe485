"""The crash and damage model of a pack file, stated as tests.

``test_repository_crash.py`` kills the repository between steps with a
raised exception, which leaves every completed ``write`` whole.  Power
loss does not: anything appended since the last barrier can be cut
anywhere, and a medium can flip a byte long after.  These tests pin
what the pack layout promises under both — and what it costs in space.

* **Power loss** — the pack is cut at *every* byte offset from the last
  barrier to the end of file; ``recover()`` never raises, indexes
  exactly the whole records before the cut, keeps every committed
  checkpoint bit-identical and lets the reborn handle commit again.
* **Damage containment** — each byte of a three-record pack is flipped
  in turn, header bytes included; ``recover()`` and ``verify()`` lose at
  most the checkpoints referencing the record that byte belongs to.
* **Space** — replaced checkpoints' records are only *counted* dead;
  compaction keeps the packs under twice the live bytes plus one pack,
  and ``gc()`` brings them down to the live bytes plus one pack.

Set ``REPRO_CRASH_REPEATS`` (the CI crash-matrix job does) to repeat the
space test over more seeds.
"""

import sys
import threading

import numpy as np
import pytest

from repro.storage import repository as repository_module
from repro.storage.repository import CheckpointRepository
from tests.storage import test_repository_crash as crash
from tests.storage.test_repository_crash import digest, page

RECORD = 14 + 16 + 64  # header + MD5 + payload


def commit(repo, vm_id, tags):
    crash.commit(repo, vm_id, tags, batched=True)


def only_pack(root):
    (pack,) = root.glob("segments/*.pack")
    return pack


def recovered_vms(repo, report, expected):
    """The recovered vm_ids, after checking their pages bit for bit."""
    for manifest in report.checkpoints:
        assert manifest.slot_digests == [digest(t) for t in expected[manifest.vm_id]]
        for tag in expected[manifest.vm_id]:
            assert repo.get_page(digest(tag)) == page(tag)
    return {manifest.vm_id for manifest in report.checkpoints}


class TestPowerLoss:
    def test_every_cut_after_the_last_barrier_recovers(self, tmp_path):
        seed_dir = tmp_path / "seed"
        repo = CheckpointRepository(seed_dir)
        commit(repo, "committed", [b"a", b"b"])  # barrier + manifest
        barrier = only_pack(seed_dir).stat().st_size
        assert barrier == 2 * RECORD
        unsynced = [b"c", b"d", b"e"]
        repo.put_pages([(digest(t), page(t)) for t in unsynced])  # no barrier
        whole = only_pack(seed_dir).read_bytes()
        assert len(whole) == 5 * RECORD
        manifest = (seed_dir / "manifests" / "committed.json").read_bytes()

        for cut in range(barrier, len(whole) + 1):
            root = tmp_path / f"cut-{cut}"
            (root / "segments").mkdir(parents=True)
            (root / "manifests").mkdir()
            (root / "segments" / "000000.pack").write_bytes(whole[:cut])
            (root / "manifests" / "committed.json").write_bytes(manifest)

            reborn = CheckpointRepository(root, fsync=False)
            report = reborn.recover()
            assert not report.quarantined
            assert recovered_vms(
                reborn, report, {"committed": [b"a", b"b"]}
            ) == {"committed"}
            survived = (cut - barrier) // RECORD
            assert report.orphan_segments == survived
            assert [reborn.has_page(digest(t)) for t in unsynced] == (
                [True] * survived + [False] * (3 - survived)
            )
            # The reborn handle writes to a pack of its own, never after
            # the torn tail, and its commit survives another restart.
            commit(reborn, "next", [b"b", b"e", b"f"])
            torn = root / "segments" / "000000.pack"
            assert torn.read_bytes() == whole[:cut]
            reborn.close()
            final = CheckpointRepository(root, fsync=False)
            assert recovered_vms(
                final,
                final.recover(),
                {"committed": [b"a", b"b"], "next": [b"b", b"e", b"f"]},
            ) == {"committed", "next"}
            assert final.verify().ok
            final.close()

    def test_a_tail_of_whole_length_garbage_is_not_indexed(self, tmp_path):
        """Delayed allocation can leave a record's length on disk and
        zeros (or anything) where its payload should be."""
        repo = CheckpointRepository(tmp_path)
        commit(repo, "committed", [b"a"])
        repo.put_pages([(digest(b"b"), page(b"b"))])
        repo.close()
        pack = only_pack(tmp_path)
        data = pack.read_bytes()
        pack.write_bytes(data[:-64] + bytes(64))

        reborn = CheckpointRepository(tmp_path)
        report = reborn.recover()
        assert recovered_vms(reborn, report, {"committed": [b"a"]}) == {"committed"}
        assert not report.quarantined and report.orphan_segments == 0
        assert not reborn.has_page(digest(b"b"))
        assert not list(reborn.quarantine_dir.iterdir())  # cost nothing: no evidence
        assert reborn.put_page(digest(b"b"), page(b"b"))
        assert reborn.get_page(digest(b"b")) == page(b"b")


class TestDamageContainment:
    TAGS = [b"a", b"b", b"c"]

    def build(self, root):
        """One pack of three records, one checkpoint per record."""
        repo = CheckpointRepository(root, fsync=False)
        repo.put_pages([(digest(t), page(t)) for t in self.TAGS])
        for tag in self.TAGS:
            commit(repo, f"vm-{tag.decode()}", [tag])
        repo.close()
        return only_pack(root)

    def test_a_flipped_byte_costs_only_its_own_record(self, tmp_path):
        pack = self.build(tmp_path)
        clean = pack.read_bytes()
        assert len(clean) == 3 * RECORD
        manifests = {
            path.name: path.read_bytes()
            for path in (tmp_path / "manifests").iterdir()
        }
        expected = {f"vm-{t.decode()}": [t] for t in self.TAGS}
        for position in range(len(clean)):
            damaged = bytearray(clean)
            damaged[position] ^= 0xFF
            pack.write_bytes(damaged)
            for name, data in manifests.items():
                (tmp_path / "manifests" / name).write_bytes(data)
            hit = f"vm-{self.TAGS[position // RECORD].decode()}"

            repo = CheckpointRepository(tmp_path, fsync=False)
            report = repo.recover()
            assert recovered_vms(repo, report, expected) == set(expected) - {hit}
            assert report.quarantined == [f"{hit}.json"]
            assert repo.verify().ok  # what survived is sound
            repo.close()

    def test_a_scrub_contains_damage_that_arrives_later(self, tmp_path):
        """The same sweep against a live handle: ``verify()`` instead of
        a restart, header bytes included."""
        pack = self.build(tmp_path)
        clean = pack.read_bytes()
        manifests = {
            path.name: path.read_bytes()
            for path in (tmp_path / "manifests").iterdir()
        }
        for position in range(0, len(clean), 3):
            pack.write_bytes(clean)
            for name, data in manifests.items():
                (tmp_path / "manifests" / name).write_bytes(data)
            repo = CheckpointRepository(tmp_path, fsync=False)
            assert repo.recover().recovered == 3
            damaged = bytearray(clean)
            damaged[position] ^= 0xFF
            pack.write_bytes(damaged)
            hit = self.TAGS[position // RECORD]

            report = repo.verify()
            assert report.corrupt_segments == [digest(hit).hex()]
            assert report.quarantined_manifests == [f"vm-{hit.decode()}.json"]
            assert {m.vm_id for m in repo.list_checkpoints()} == {
                f"vm-{t.decode()}" for t in self.TAGS if t != hit
            }
            repo.close()


def physical_bytes(root):
    return sum(path.stat().st_size for path in root.glob("segments/*.pack"))


@pytest.mark.parametrize("seed", range(crash.REPEATS))
class TestSpace:
    def test_twenty_half_rewritten_generations_stay_bounded(
        self, tmp_path, monkeypatch, seed
    ):
        slots, roll = 64, 16 * RECORD
        monkeypatch.setattr(repository_module, "_PACK_ROLL_BYTES", roll)
        one_pack = roll + repository_module._RECORDS_PER_WRITE * RECORD
        rng = np.random.default_rng(seed)
        serial = iter(range(10**6))
        image = [b"%d" % next(serial) for _ in range(slots)]
        live = slots * RECORD

        repo = CheckpointRepository(tmp_path, fsync=False)
        worst = 0
        for _generation in range(20):
            for slot in rng.choice(slots, size=slots // 2, replace=False):
                image[slot] = b"%d" % next(serial)
            commit(repo, "vm", image)
            repo.compact()  # what the write-behind thread does after a commit
            assert repo.stored_bytes == physical_bytes(tmp_path)
            assert physical_bytes(tmp_path) <= 2 * live + one_pack
            worst = max(worst, physical_bytes(tmp_path))
        assert worst > live  # the half-dead rule did leave dead bytes behind
        repo.close()

        fresh = CheckpointRepository(tmp_path, fsync=False)
        fresh.gc()
        assert physical_bytes(tmp_path) <= live + one_pack
        stats = fresh.pack_stats()
        assert stats["physical_bytes"] == physical_bytes(tmp_path)
        fresh.close()
        final = CheckpointRepository(tmp_path, fsync=False)
        (manifest,) = final.recover().checkpoints
        assert manifest.slot_digests == [digest(t) for t in image]
        assert all(final.get_page(digest(t)) == page(t) for t in image)
        assert final.pack_stats()["dead_bytes"] == 0


class TestConcurrentCompaction:
    def test_compaction_interleaves_with_commits_and_reads(
        self, tmp_path, monkeypatch
    ):
        """The write-behind thread compacts while the event loop commits
        and reads: more threads than cores, a short switch interval, and
        the invariant a lost index update or a read from a closed pack
        would break — every committed page reads back bit for bit."""
        monkeypatch.setattr(repository_module, "_PACK_ROLL_BYTES", 8 * RECORD)
        # Several lock rounds per compacted pack, not one.
        monkeypatch.setattr(repository_module, "_SCAN_CHUNK", 3 * RECORD)
        repo = CheckpointRepository(tmp_path, fsync=False)
        rng = np.random.default_rng(5)
        serial = iter(range(10**6))
        image = [b"%d" % next(serial) for _ in range(32)]
        commit(repo, "vm", image)
        stop, errors, compactions = threading.Event(), [], [0]

        def guarded(body):
            def run():
                try:
                    while not stop.is_set():
                        body()
                except BaseException as exc:  # surfaced by the assert below
                    errors.append(exc)

            return threading.Thread(target=run)

        def compact():
            repo.compact()
            compactions[0] += 1

        def read():
            for tag in list(image):
                # Released between the pick and the read is fine; wrong bytes are not.
                assert repo.get_page(digest(tag)) in (None, page(tag))

        threads = [guarded(compact)] + [guarded(read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _generation in range(150):
                for slot in rng.choice(len(image), size=len(image) // 2, replace=False):
                    image[slot] = b"%d" % next(serial)
                commit(repo, "vm", image)
                assert all(repo.get_page(digest(t)) == page(t) for t in image)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=20)
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert compactions[0] > 0
        repo.close()
        reborn = CheckpointRepository(tmp_path, fsync=False)
        (manifest,) = reborn.recover().checkpoints
        assert manifest.slot_digests == [digest(t) for t in image]
        assert reborn.verify().ok
