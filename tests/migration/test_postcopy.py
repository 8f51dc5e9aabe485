"""Unit tests for the post-copy migration model."""

import numpy as np
import pytest

from repro.core.checkpoint import Checkpoint
from repro.core.strategies import MIYAKODORI, QEMU, VECYCLE, VECYCLE_DEDUP
from repro.core.transfer import compute_transfer_set
from repro.migration.postcopy import PostcopyConfig, simulate_postcopy
from repro.migration.precopy import simulate_migration
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE, WAN_CLOUDNET

MIB = 2**20


def make_vm(size_mib=64, dirty_rate=50, seed=1):
    vm = SimVM("vm", size_mib * MIB, dirty_rate_pages_per_s=dirty_rate, seed=seed)
    vm.image.write_fresh(np.arange(vm.num_pages))
    return vm


def checkpoint_of(vm):
    return Checkpoint(vm_id=vm.vm_id, fingerprint=vm.fingerprint())


class TestPostcopyBasics:
    def test_downtime_independent_of_memory_size(self):
        small = simulate_postcopy(make_vm(32), QEMU, LAN_1GBE)
        large = simulate_postcopy(make_vm(256), QEMU, LAN_1GBE)
        assert small.downtime_s == large.downtime_s
        # ...unlike the fill time.
        assert large.fill_time_s > small.fill_time_s

    def test_all_pages_pushed_without_checkpoint(self):
        vm = make_vm()
        report = simulate_postcopy(vm, QEMU, LAN_1GBE)
        assert report.pages_pushed == vm.num_pages
        assert report.pages_reused == 0
        assert report.tx_bytes >= vm.memory_bytes

    def test_faults_scale_with_access_rate(self):
        quiet = simulate_postcopy(
            make_vm(), QEMU, WAN_CLOUDNET,
            config=PostcopyConfig(access_rate_pages_per_s=10),
        )
        busy = simulate_postcopy(
            make_vm(), QEMU, WAN_CLOUDNET,
            config=PostcopyConfig(access_rate_pages_per_s=1000),
        )
        assert busy.remote_faults > 10 * quiet.remote_faults
        assert busy.fault_stall_s > quiet.fault_stall_s

    def test_idle_guest_no_faults(self):
        vm = make_vm(dirty_rate=0)
        report = simulate_postcopy(vm, QEMU, LAN_1GBE)
        assert report.remote_faults == 0


class TestCheckpointAssistedPostcopy:
    def test_identical_memory_fills_instantly(self):
        vm = make_vm(dirty_rate=0)
        report = simulate_postcopy(
            vm, VECYCLE, WAN_CLOUDNET, checkpoint=checkpoint_of(vm),
            config=PostcopyConfig(announce_known=True),
        )
        assert report.pages_reused == vm.num_pages
        assert report.pages_pushed == 0
        assert report.tx_bytes == 0
        assert report.fill_time_s == 0.0

    def test_checkpoint_shrinks_fill_and_faults(self):
        vm = make_vm(dirty_rate=200)
        ckpt = checkpoint_of(vm)
        vm.run_for(1800)

        plain_vm = make_vm(dirty_rate=200)
        plain_vm.run_for(1800)
        plain = simulate_postcopy(plain_vm, QEMU, WAN_CLOUDNET)
        assisted = simulate_postcopy(vm, VECYCLE, WAN_CLOUDNET, checkpoint=ckpt)
        assert assisted.fill_time_s < plain.fill_time_s / 2
        assert assisted.remote_faults < plain.remote_faults
        assert assisted.tx_bytes < plain.tx_bytes / 2

    def test_announce_accounted_unless_known(self):
        vm = make_vm(dirty_rate=0)
        ckpt = checkpoint_of(vm)
        unknown = simulate_postcopy(vm, VECYCLE, WAN_CLOUDNET, checkpoint=ckpt)
        assert unknown.announce_bytes == VECYCLE.wire.announce_frame_bytes(len(ckpt.index))
        known = simulate_postcopy(
            vm, VECYCLE, WAN_CLOUDNET, checkpoint=ckpt,
            config=PostcopyConfig(announce_known=True),
        )
        assert known.announce_bytes == 0

    def test_first_visit_pays_the_empty_announce_even_if_known(self):
        # No checkpoint can be known: the daemon announces its empty set.
        vm = make_vm(dirty_rate=0)
        for config in (PostcopyConfig(), PostcopyConfig(announce_known=True)):
            report = simulate_postcopy(vm, VECYCLE, LAN_1GBE, config=config)
            assert report.announce_bytes == VECYCLE.wire.announce_frame_bytes(0)
            assert report.pages_pushed == vm.num_pages

    def test_checkpoint_size_mismatch_rejected(self):
        vm = make_vm(32)
        other = make_vm(64)
        with pytest.raises(ValueError):
            simulate_postcopy(vm, VECYCLE, LAN_1GBE, checkpoint=checkpoint_of(other))


class TestEachStrategyItsOwnRule:
    @pytest.mark.parametrize("strategy", [MIYAKODORI, VECYCLE_DEDUP], ids=lambda s: s.name)
    def test_pushes_what_the_first_round_rule_sends(self, strategy):
        vm = make_vm(size_mib=1, dirty_rate=0)
        ckpt = checkpoint_of(vm)
        vm.image.relocate(np.arange(0, 64), np.random.default_rng(5))
        vm.image.write_duplicate_of(np.arange(64, 96), 200)
        vm.image.write_fresh(np.arange(96, 128))
        vm.image.write_duplicate_of(np.arange(128, 140), 96)
        expected = compute_transfer_set(
            strategy.method, vm.fingerprint(), checkpoint=ckpt.fingerprint
        )
        report = simulate_postcopy(
            vm, strategy, LAN_1GBE, checkpoint=ckpt,
            config=PostcopyConfig(announce_known=True),
        )
        # Miyakodori pushes the relocated pages; a dedup hit is a reference.
        assert report.pages_pushed == expected.full_pages
        assert report.pages_reused == (
            expected.checksum_only_pages + expected.skipped_pages
        )
        # A full page travels in pre-copy's message: with its checksum
        # under a hash strategy (§3.2), bare otherwise.
        wire = strategy.wire
        page_message = "full" if strategy.method.uses_hashes else "plain"
        assert report.tx_bytes == (
            expected.full_pages * wire.message_bytes(page_message)
            + expected.ref_pages * wire.ref_message
        )


class TestPrePostComparison:
    def test_postcopy_downtime_beats_precopy_on_hot_guest(self):
        # The classic trade: a write-hot guest forces pre-copy into a
        # long stop-and-copy, while post-copy's downtime stays constant.
        hot_pre = SimVM("vm", 64 * MIB, dirty_rate_pages_per_s=5000,
                        working_set_fraction=0.5, seed=2)
        hot_pre.image.write_fresh(np.arange(hot_pre.num_pages))
        pre = simulate_migration(hot_pre, QEMU, WAN_CLOUDNET)

        hot_post = SimVM("vm", 64 * MIB, dirty_rate_pages_per_s=5000,
                         working_set_fraction=0.5, seed=2)
        hot_post.image.write_fresh(np.arange(hot_post.num_pages))
        post = simulate_postcopy(hot_post, QEMU, WAN_CLOUDNET)
        assert post.downtime_s < pre.downtime_s

    def test_postcopy_never_retransmits(self):
        # Post-copy sends each page at most once; pre-copy resends
        # dirty pages every round.
        vm = SimVM("vm", 64 * MIB, dirty_rate_pages_per_s=2000,
                   working_set_fraction=0.3, seed=3)
        vm.image.write_fresh(np.arange(vm.num_pages))
        pre = simulate_migration(vm, QEMU, WAN_CLOUDNET)

        vm2 = SimVM("vm", 64 * MIB, dirty_rate_pages_per_s=2000,
                    working_set_fraction=0.3, seed=3)
        vm2.image.write_fresh(np.arange(vm2.num_pages))
        post = simulate_postcopy(vm2, QEMU, WAN_CLOUDNET)
        assert post.tx_bytes < pre.tx_bytes
