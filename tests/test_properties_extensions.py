"""Property-based tests for the extension modules (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.checkpoint import Checkpoint
from repro.core.fingerprint import Fingerprint
from repro.core.gang import GangMember, gang_transfer_set
from repro.core.incremental import plan_checkpoint_update
from repro.storage.blocksync import plan_disk_sync
from repro.traces.generate import Trace
from repro.traces.io import export_text, import_text

hash_arrays = arrays(
    dtype=np.uint64,
    shape=st.integers(min_value=1, max_value=32),
    elements=st.integers(min_value=0, max_value=10),
)


class TestGangProperties:
    @given(st.lists(hash_arrays, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_partition_conservation(self, fleets):
        members = [
            GangMember(vm_id=f"vm{i}", fingerprint=Fingerprint(hashes=values))
            for i, values in enumerate(fleets)
        ]
        for cross_dedup in (False, True):
            result = gang_transfer_set(members, cross_vm_dedup=cross_dedup)
            assert (
                result.full_pages + result.ref_pages + result.reused_pages
                == result.total_pages
            )

    @given(st.lists(hash_arrays, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_cross_dedup_never_worse(self, fleets):
        members = [
            GangMember(vm_id=f"vm{i}", fingerprint=Fingerprint(hashes=values))
            for i, values in enumerate(fleets)
        ]
        solo = gang_transfer_set(members, cross_vm_dedup=False)
        gang = gang_transfer_set(members, cross_vm_dedup=True)
        assert gang.full_pages <= solo.full_pages

    @given(hash_arrays, hash_arrays)
    @settings(max_examples=40, deadline=None)
    def test_merged_checkpoints_never_worse(self, a_values, b_values):
        n = min(len(a_values), len(b_values))
        a_values, b_values = a_values[:n], b_values[:n]
        checkpoint = Checkpoint(vm_id="a", fingerprint=Fingerprint(hashes=a_values))
        members = [
            GangMember(vm_id="a", fingerprint=Fingerprint(hashes=a_values),
                       checkpoint=checkpoint),
            GangMember(vm_id="b", fingerprint=Fingerprint(hashes=b_values)),
        ]
        own = gang_transfer_set(members, cross_vm_checkpoints=False)
        merged = gang_transfer_set(members, cross_vm_checkpoints=True)
        assert merged.full_pages <= own.full_pages
        assert merged.reused_pages >= own.reused_pages


class TestIncrementalProperties:
    @given(hash_arrays, hash_arrays)
    @settings(max_examples=40, deadline=None)
    def test_plan_counts_bounded(self, a_values, b_values):
        n = min(len(a_values), len(b_values))
        if n == 0:
            return
        plan = plan_checkpoint_update(
            Fingerprint(hashes=a_values[:n]), Fingerprint(hashes=b_values[:n])
        )
        assert 0 <= plan.num_changed <= n
        assert 0.0 <= plan.unchanged_fraction <= 1.0

    @given(hash_arrays)
    @settings(max_examples=30, deadline=None)
    def test_self_update_is_empty(self, values):
        fingerprint = Fingerprint(hashes=values)
        plan = plan_checkpoint_update(fingerprint, fingerprint)
        assert plan.num_changed == 0


class TestBlockSyncProperties:
    @given(hash_arrays, hash_arrays)
    @settings(max_examples=40, deadline=None)
    def test_partition_and_bounds(self, current, replica):
        n = min(len(current), len(replica))
        if n == 0:
            return
        plan = plan_disk_sync(current[:n], destination_replica=replica[:n])
        assert (
            plan.blocks_full + plan.blocks_reused + plan.blocks_skipped
            == plan.num_blocks
        )
        assert 0.0 <= plan.fraction_of_full <= 1.0

    @given(hash_arrays)
    @settings(max_examples=30, deadline=None)
    def test_identical_replica_free(self, blocks):
        plan = plan_disk_sync(blocks, destination_replica=blocks.copy())
        assert plan.blocks_full == 0

    @given(hash_arrays)
    @settings(max_examples=30, deadline=None)
    def test_replica_never_hurts(self, blocks):
        cold = plan_disk_sync(blocks)
        warm = plan_disk_sync(blocks, destination_replica=blocks.copy())
        assert warm.blocks_full <= cold.blocks_full


class TestTraceIoProperties:
    @given(
        st.lists(hash_arrays, min_size=1, max_size=4),
        st.integers(min_value=1, max_value=2**40),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_arbitrary_traces(self, rows, ram_bytes):
        import tempfile
        from pathlib import Path

        n = min(len(row) for row in rows)
        fingerprints = [
            Fingerprint(hashes=row[:n], timestamp=float(i * 1800))
            for i, row in enumerate(rows)
        ]
        trace = Trace(machine="prop", ram_bytes=ram_bytes, fingerprints=fingerprints)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.txt"
            export_text(trace, path)
            loaded = import_text(path)
        assert loaded.ram_bytes == ram_bytes
        assert len(loaded) == len(trace)
        for a, b in zip(trace.fingerprints, loaded.fingerprints):
            assert (a.hashes == b.hashes).all()
            assert a.timestamp == b.timestamp
