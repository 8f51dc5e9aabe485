"""Real bytes through the live runtime: the hosted image is the source's.

Every case migrates an image into a live daemon and reads what the
daemon then hosts back out of its content store — after a restart, out
of its packs — page by page.  "Identical" compares those bytes with the
pages the source's content ids expand to, not digests, so a migration
whose digests agree while its bytes do not (§3.4) shows up as one.
"""

import asyncio

import numpy as np
import pytest

from repro.core import checksum
from repro.core.checksum import MD5, PAGE_SIZE, ChecksumAlgorithm, available_algorithms
from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE, VECYCLE_DIRTY
from repro.core.transfer import compute_transfer_set
from repro.mem.pagestore import PageStore
from repro.runtime import (
    CheckpointDaemon,
    MigrationError,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.storage.repository import CheckpointRepository

N = 256
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=2, base_backoff_s=0.01),
    time_scale=0.0,
)


def evolved(seed=4, updated=40, relocated=64):
    """(checkpoint, current) content ids of an ``N``-page image: since
    the checkpoint, ``updated`` slots got new content and ``relocated``
    others swapped contents among themselves."""
    rng = np.random.default_rng(seed)
    checkpoint = rng.integers(1, 2**62, size=N, dtype=np.uint64)
    current = checkpoint.copy()
    slots = rng.permutation(N)
    current[slots[:updated]] = rng.integers(2**62, 2**63, size=updated, dtype=np.uint64)
    moved = slots[updated : updated + relocated]
    current[moved] = current[rng.permutation(moved)]
    return checkpoint, current


def hosted_image(daemon, vm_id="vm"):
    """The page bytes ``daemon`` hosts for ``vm_id``, in slot order."""
    return b"".join(map(daemon.store.get, daemon.checkpoints[vm_id].slot_digests))


def migrate_and_read(checkpoint, current, strategy=VECYCLE, state_dir=None, dirty_feed=None,
                     checkpoint_checksum=None, dirty_slots=None):
    """Migrate ``current`` into a daemon hosting ``checkpoint`` (None: a
    first visit) and read the hosted image back.

    With ``state_dir`` one daemon commits the checkpoint and stops, and
    the migration is served by the next one over the same directory,
    which starts with no page resident.  The checkpoint is hashed with
    ``checkpoint_checksum`` (default: the strategy's).  Returns
    ``(metrics, hosted image, pages resident once the migration
    completed)``.
    """
    checkpoint_checksum = checkpoint_checksum or strategy.checksum

    async def main():
        fingerprint = None if checkpoint is None else Fingerprint(hashes=checkpoint)
        if state_dir is not None and fingerprint is not None:
            async with CheckpointDaemon(state_dir=state_dir) as first_life:
                first_life.install_checkpoint("vm", fingerprint, checkpoint_checksum)
        async with CheckpointDaemon(state_dir=state_dir) as daemon:
            if state_dir is None and fingerprint is not None:
                daemon.install_checkpoint("vm", fingerprint, checkpoint_checksum)
            state = SourceState("vm", current, PageStore(), dirty_slots=dirty_slots)
            source = MigrationSource(state, strategy, config=FAST)
            metrics = await source.migrate(daemon.host, daemon.port, dirty_feed=dirty_feed)
            resident = len(daemon.store)
            return metrics, hosted_image(daemon), resident

    return asyncio.run(main())


def source_bytes(current):
    return PageStore().materialize(current)


def pages(image):
    return [image[at : at + PAGE_SIZE] for at in range(0, len(image), PAGE_SIZE)]


def check_against_model(checkpoint, current, strategy=VECYCLE):
    """Migrate ``current``: the page counts must be the analytic model's
    and the hosted image the source's.  Returns the metrics."""
    expected = compute_transfer_set(
        strategy.method, Fingerprint(current), checkpoint=Fingerprint(checkpoint)
    )
    metrics, image, _ = migrate_and_read(checkpoint, current, strategy)
    assert metrics.outcome == "completed"
    assert metrics.pages_full == expected.full_pages
    assert metrics.pages_checksum_only == expected.checksum_only_pages
    assert image == source_bytes(current)
    return metrics


def writer(current, schedule):
    """A dirty feed: before round ``r`` the slots ``schedule[r]`` of
    ``current`` get content never seen before."""
    fresh = iter(range(2**63, 2**64))

    def feed(round_no):
        slots = schedule.get(round_no, [])
        current[slots] = [next(fresh) for _ in slots]
        return slots

    return feed


class TestEveryAlgorithm:
    @pytest.mark.parametrize("name", available_algorithms())
    def test_model_counts_identical_image(self, name):
        metrics = check_against_model(*evolved(), VECYCLE.with_checksum(name))
        assert metrics.pages_full == 40
        assert metrics.pages_checksum_only == N - 40
        sink = metrics.sink_stats
        assert sink["reused_in_place"] + sink["reused_from_store"] == N - 40


class TestRandomEvolution:
    @pytest.mark.parametrize("seed", range(5))
    def test_arbitrary_evolution_reconstructs(self, seed):
        rng = np.random.default_rng(seed)
        updated = int(rng.integers(0, N * 4 // 5))
        check_against_model(*evolved(seed, updated, int(rng.integers(0, N - updated))))


class TestIdleImage:
    def test_one_round_every_page_reused_in_place(self):
        checkpoint, current = evolved(updated=0, relocated=0)
        metrics, image, _ = migrate_and_read(checkpoint, current)
        assert metrics.num_rounds == 1
        assert metrics.messages_by_type == {"checksum": N}
        assert metrics.sink_stats["reused_in_place"] == N
        assert image == source_bytes(current)


class TestPartialUpdate:
    @pytest.mark.parametrize("updated", [0, 64, 128])
    def test_only_updated_pages_travel(self, updated):
        checkpoint, current = evolved(updated=updated, relocated=0)
        metrics, image, _ = migrate_and_read(checkpoint, current)
        assert metrics.pages_full == updated
        # Every page arrives once: in full, or reused where it lay.
        sink = metrics.sink_stats
        assert sink["rx_payload_bytes"] == metrics.payload_bytes
        assert metrics.pages_full + sink["reused_in_place"] == N
        assert sink["reused_from_store"] == 0
        assert image == source_bytes(current)

    def test_payload_grows_with_the_updated_share(self):
        low, high = (
            check_against_model(*evolved(updated=updated, relocated=0)).payload_bytes
            for updated in (25, 230)
        )
        assert low < high


class TestRelocatedImage:
    """Every page moved, none changed: Listing 1's out-of-order reuse."""

    def test_in_memory(self):
        checkpoint, current = evolved(updated=0, relocated=N)
        metrics, image, _ = migrate_and_read(checkpoint, current)
        assert metrics.pages_full == 0
        assert metrics.sink_stats["reused_from_store"] > 0
        assert image == source_bytes(current)

    def test_after_restart_from_packs(self, tmp_path):
        checkpoint, current = evolved(updated=0, relocated=N)
        metrics, image, resident = migrate_and_read(checkpoint, current, state_dir=tmp_path)
        assert metrics.pages_full == 0
        assert metrics.sink_stats["reused_from_store"] > 0
        # The migration resolved every page by digest and read no page
        # bytes; ``image`` was read back from the packs afterwards.
        assert resident == 0
        assert image == source_bytes(current)

    def test_hosted_pages_are_the_checkpoint_pages_moved(self):
        checkpoint, current = evolved(updated=0, relocated=N)
        _, image, _ = migrate_and_read(checkpoint, current)
        assert sorted(pages(image)) == sorted(pages(source_bytes(checkpoint)))


class TestFirstVisit:
    def test_every_page_travels_in_full(self):
        _, current = evolved()
        metrics, image, _ = migrate_and_read(None, current)
        assert metrics.pages_full == N
        assert image == source_bytes(current)

    def test_announce_is_empty(self):
        metrics, _, _ = migrate_and_read(None, evolved()[1])
        assert metrics.announce_bytes == VECYCLE.wire.announce_frame_bytes(0)

    def test_dirty_rounds_follow_a_full_first_round(self):
        _, current = evolved()
        metrics, image, _ = migrate_and_read(None, current, dirty_feed=writer(current, {2: [9]}))
        assert metrics.messages_by_type == {"full": N, "plain": 1}
        assert image == source_bytes(current)


class TestWeakChecksum:
    """§3.4 made concrete: the sender elides a page on a digest match
    alone, so a colliding digest installs the wrong bytes silently."""

    @staticmethod
    def colliding_images():
        """A 4-page checkpoint of contents with distinct first bytes, and
        a current image whose page 0 is other content sharing page 0's
        first byte."""
        store, by_first_byte = PageStore(), {}
        content_id = 0
        while True:
            content_id += 1
            first = store.page_bytes(content_id)[0]
            if first in by_first_byte:
                break
            by_first_byte[first] = content_id
        original = by_first_byte.pop(first)
        others = list(by_first_byte.values())[:3]
        checkpoint = np.array([original, *others], dtype=np.uint64)
        current = np.array([content_id, *others], dtype=np.uint64)
        return checkpoint, current

    def test_collision_completes_with_wrong_image(self, monkeypatch):
        weak = ChecksumAlgorithm(name="first-byte", digest_size=1, throughput=1e12,
                                 func=lambda page: bytes(page[:1]))
        monkeypatch.setitem(checksum._REGISTRY, weak.name, weak)
        checkpoint, current = self.colliding_images()
        metrics, image, _ = migrate_and_read(checkpoint, current, VECYCLE.with_checksum(weak.name))
        assert metrics.outcome == "completed"
        assert metrics.pages_full == 0
        assert image != source_bytes(current)

    def test_md5_sends_the_page(self):
        checkpoint, current = self.colliding_images()
        metrics, image, _ = migrate_and_read(checkpoint, current, VECYCLE.with_checksum("md5"))
        assert metrics.pages_full == 1
        assert image == source_bytes(current)


class TestAlgorithmMismatch:
    """A daemon hosting an MD5 checkpoint — what a durable daemon's
    manifests from before the default changed hold — meets a source
    hashing with another algorithm.  The checkpoint is no checkpoint to
    that migration: never an announce it cannot match, never a preload
    its COMPLETE cannot agree with."""

    ALGORITHMS = ["sha1", "sha256", "sha256-128"]
    LIVES = pytest.mark.parametrize("restarted", [False, True], ids=["in-memory", "restarted"])

    @staticmethod
    def migrate(strategy, restarted, tmp_path):
        checkpoint, current = evolved()
        return current, migrate_and_read(
            checkpoint, current, strategy,
            state_dir=tmp_path if restarted else None,
            checkpoint_checksum=MD5,
            dirty_slots=np.flatnonzero(checkpoint != current),
        )

    @LIVES
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_hash_method_gets_an_empty_announce(self, tmp_path, name, restarted):
        strategy = VECYCLE.with_checksum(name)
        current, (metrics, image, _) = self.migrate(strategy, restarted, tmp_path)
        assert metrics.outcome == "completed"
        assert metrics.announce_bytes == strategy.wire.announce_frame_bytes(0)
        assert metrics.pages_full == N
        assert image == source_bytes(current)

    @LIVES
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_dirty_tracking_method_finds_no_checkpoint(self, tmp_path, name, restarted):
        with pytest.raises(MigrationError, match="no-checkpoint"):
            self.migrate(VECYCLE_DIRTY.with_checksum(name), restarted, tmp_path)

    @LIVES
    def test_the_checkpoint_still_serves_its_own_algorithm(self, tmp_path, restarted):
        strategy = VECYCLE_DIRTY.with_checksum("md5")
        current, (metrics, image, _) = self.migrate(strategy, restarted, tmp_path)
        assert metrics.pages_full == 40
        assert metrics.pages_checksum_only > 0
        assert image == source_bytes(current)


class TestDirtyRounds:
    def test_own_bytes_rewrite_is_resent(self):
        # Later rounds carry dirty pages verbatim (§3.1): a write that
        # leaves a page's bytes as they were still costs a plain page.
        checkpoint, current = evolved(updated=0, relocated=0)
        metrics, image, _ = migrate_and_read(
            checkpoint, current, dirty_feed=lambda round_no: [0] if round_no == 2 else None
        )
        assert metrics.pages_full == 0
        assert metrics.num_rounds == 2
        assert metrics.messages_by_type == {"checksum": N, "plain": 1}
        assert metrics.bytes_by_type["plain"] == VECYCLE.wire.plain_page_message
        assert image == source_bytes(current)

    def test_writes_between_rounds_are_resent_and_converge(self):
        checkpoint, current = evolved(updated=0, relocated=0)
        feed = writer(current, {2: [0, 1, 2, 3], 3: [1, 2], 4: [2]})
        metrics, image, _ = migrate_and_read(checkpoint, current, dirty_feed=feed)
        assert [r.messages for r in metrics.rounds] == [N, 4, 2, 1]
        assert image == source_bytes(current)

    def test_first_round_still_checkpoint_assisted(self):
        checkpoint, current = evolved(updated=0, relocated=0)
        feed = writer(current, {2: [5, 6]})
        metrics, _, _ = migrate_and_read(checkpoint, current, dirty_feed=feed)
        assert metrics.pages_checksum_only == N
        assert metrics.rounds[0].bytes_sent == N * VECYCLE.wire.checksum_message


class TestDurableState:
    """A daemon restarted over its ``state_dir`` hosts the committed
    image from its packs; damage to them costs that checkpoint only."""

    def test_restart_hosts_the_committed_bytes(self, tmp_path):
        _, current = evolved()
        migrate_and_read(None, current, state_dir=tmp_path)
        daemon = CheckpointDaemon(state_dir=tmp_path)
        assert hosted_image(daemon) == source_bytes(current)
        daemon.repository.close()

    @pytest.mark.parametrize("damage", ["rot", "cut"])
    def test_damaged_checkpoint_is_quarantined(self, tmp_path, damage):
        _, current = evolved()
        migrate_and_read(None, current, state_dir=tmp_path)
        if damage == "rot":
            repository = CheckpointRepository(tmp_path)
            repository.recover()
            digest = repository.load_manifest("vm").slot_digests[3]
            assert repository.corrupt_segment(digest)
            repository.close()
        else:
            (pack,) = (tmp_path / "segments").iterdir()
            pack.write_bytes(pack.read_bytes()[: pack.stat().st_size // 2])
        # Undamaged, the same image would send no page in full.
        metrics, image, _ = migrate_and_read(None, current, state_dir=tmp_path)
        assert metrics.pages_full == N
        assert image == source_bytes(current)

    def test_rot_while_running_is_caught_by_the_scrub(self, tmp_path):
        _, current = evolved()
        migrate_and_read(None, current, state_dir=tmp_path)
        daemon = CheckpointDaemon(state_dir=tmp_path)
        digest = daemon.checkpoints["vm"].slot_digests[3]
        assert daemon.repository.corrupt_segment(digest)
        assert daemon.repository.verify().corrupt_segments == [digest.hex()]
        assert daemon.store.get(digest) is None  # the rotted bytes are never served
        daemon.repository.close()


class TestProtocolErrors:
    def test_checksum_of_absent_content_is_refused(self):
        # A source claiming the checkpoint's generation with a checksum
        # set the daemon does not hold earns the skip, then sends
        # checksum-only pages; the daemon refuses them rather than guess.
        checkpoint, current = evolved()
        known = frozenset(PageStore().digests_for(current, VECYCLE.checksum))

        async def main():
            async with CheckpointDaemon() as daemon:
                hosted = daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
                state = SourceState(
                    "vm", current, PageStore(), known_remote=(hosted.generation, known)
                )
                await MigrationSource(state, VECYCLE, config=FAST).migrate(daemon.host, daemon.port)

        with pytest.raises(MigrationError, match="missing-content"):
            asyncio.run(main())
