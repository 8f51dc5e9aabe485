"""Unit tests for the pre-copy migration simulator."""

import numpy as np
import pytest

from repro.core.checkpoint import Checkpoint
from repro.core.strategies import (
    DEDUP,
    MIYAKODORI,
    QEMU,
    VECYCLE,
    VECYCLE_DEDUP,
    VECYCLE_DIRTY,
)
from repro.migration.precopy import PrecopyConfig, simulate_migration
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE, WAN_CLOUDNET
from repro.storage.disk import HDD_HD204UI, SSD_INTEL330

MIB = 2**20


def checkpoint_of(vm):
    return Checkpoint(
        vm_id=vm.vm_id,
        fingerprint=vm.fingerprint(),
        generation_vector=vm.tracker.snapshot(),
    )


class TestIdleVmBestCase:
    def test_vecycle_much_faster_than_qemu(self, small_vm):
        ckpt = checkpoint_of(small_vm)
        fast = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        slow = simulate_migration(small_vm, QEMU, LAN_1GBE)
        assert fast.tx_bytes < slow.tx_bytes / 10
        assert fast.total_time_s < slow.total_time_s

    def test_identical_memory_sends_no_full_pages(self, small_vm):
        ckpt = checkpoint_of(small_vm)
        report = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        assert report.pages_full == 0
        assert report.pages_checksum_only == small_vm.num_pages
        assert report.similarity == pytest.approx(1.0)

    def test_all_reuse_is_in_place_when_nothing_moved(self, small_vm):
        ckpt = checkpoint_of(small_vm)
        report = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        assert report.pages_reused_from_disk == 0
        assert report.pages_reused_in_place == small_vm.num_pages


class TestStrategies:
    def test_qemu_sends_everything(self, small_vm):
        report = simulate_migration(small_vm, QEMU, LAN_1GBE)
        assert report.pages_full == small_vm.num_pages
        assert report.tx_bytes > small_vm.memory_bytes

    def test_dedup_sends_less_than_full(self, small_vm):
        full = simulate_migration(small_vm, QEMU, LAN_1GBE)
        deduped = simulate_migration(small_vm, DEDUP, LAN_1GBE)
        assert deduped.tx_bytes < full.tx_bytes
        assert deduped.pages_ref > 0

    def test_miyakodori_skips_clean_pages(self, small_vm):
        ckpt = checkpoint_of(small_vm)
        small_vm.write_slots(np.arange(16))
        report = simulate_migration(small_vm, MIYAKODORI, LAN_1GBE, checkpoint=ckpt)
        assert report.pages_full == 16
        assert report.pages_skipped == small_vm.num_pages - 16

    def test_vecycle_dirty_combination_reduces_checksum_work(self, small_vm):
        ckpt = checkpoint_of(small_vm)
        small_vm.write_slots(np.arange(16))
        plain = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        combo = simulate_migration(small_vm, VECYCLE_DIRTY, LAN_1GBE, checkpoint=ckpt)
        assert combo.pages_full == plain.pages_full

    def test_vecycle_dedup_no_worse_than_vecycle(self, small_vm):
        ckpt = checkpoint_of(small_vm)
        small_vm.write_slots(np.arange(32))
        plain = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        deduped = simulate_migration(small_vm, VECYCLE_DEDUP, LAN_1GBE, checkpoint=ckpt)
        assert deduped.pages_full <= plain.pages_full


class TestFallbacks:
    def test_vecycle_without_checkpoint_degrades_to_full(self, small_vm):
        report = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=None)
        assert report.pages_full == small_vm.num_pages
        assert report.pages_checksum_only == 0

    def test_vecycle_dedup_without_checkpoint_degrades_to_dedup(self, small_vm):
        report = simulate_migration(small_vm, VECYCLE_DEDUP, LAN_1GBE, checkpoint=None)
        assert report.pages_ref > 0
        assert report.pages_checksum_only == 0

    def test_first_visit_charges_what_the_runtime_sends(self, small_vm):
        wire, n = VECYCLE.wire, small_vm.num_pages
        report = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=None)
        # Page plus checksum per page, and the daemon's empty announce.
        assert report.rounds[0].bytes_sent == n * wire.full_page_message
        assert report.announce_bytes == wire.announce_frame_bytes(0)

    def test_checkpoint_size_mismatch_rejected(self, small_vm):
        other = SimVM.idle("other", 4 * MIB)
        with pytest.raises(ValueError):
            simulate_migration(
                small_vm, VECYCLE, LAN_1GBE, checkpoint=checkpoint_of(other)
            )


class TestRelocatedPages:
    def test_relocated_content_read_from_disk(self, small_vm, rng):
        ckpt = checkpoint_of(small_vm)
        # Move content around without changing it.
        slots = np.arange(0, 64)
        small_vm.image.relocate(slots, rng)
        report = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        assert report.pages_full == 0
        assert report.pages_reused_from_disk > 0
        assert (
            report.pages_reused_from_disk + report.pages_reused_in_place
            == small_vm.num_pages
        )


class TestPrecopyDynamics:
    def _busy_vm(self):
        vm = SimVM(
            "busy", 32 * MIB, dirty_rate_pages_per_s=2000,
            working_set_fraction=0.05, seed=11,
        )
        vm.image.write_fresh(np.arange(vm.num_pages))
        return vm

    def test_busy_vm_needs_multiple_rounds(self):
        vm = self._busy_vm()
        report = simulate_migration(vm, QEMU, WAN_CLOUDNET)
        assert report.num_rounds >= 2

    def test_dirty_rounds_shrink(self):
        vm = self._busy_vm()
        report = simulate_migration(vm, QEMU, WAN_CLOUDNET)
        sent = [r.pages_sent for r in report.rounds[1:]]
        assert sent == sorted(sent, reverse=True)

    def test_downtime_respects_target(self):
        vm = self._busy_vm()
        config = PrecopyConfig(downtime_target_s=0.5, switchover_s=0.02)
        report = simulate_migration(vm, QEMU, LAN_1GBE, config=config)
        assert report.downtime_s <= 0.5 + 0.02 + LAN_1GBE.rtt_s + 0.05

    def test_max_rounds_cap(self):
        vm = SimVM(
            "hopeless", 32 * MIB, dirty_rate_pages_per_s=1e9,
            working_set_fraction=1.0, seed=1,
        )
        config = PrecopyConfig(max_rounds=5)
        report = simulate_migration(vm, QEMU, WAN_CLOUDNET, config=config)
        assert report.num_rounds <= 6  # 5 copy rounds + stop-and-copy

    def test_traffic_accounting_consistent(self):
        vm = self._busy_vm()
        report = simulate_migration(vm, QEMU, LAN_1GBE)
        assert report.tx_bytes == sum(r.bytes_sent for r in report.rounds)


class TestSetupAndAnnounce:
    def test_setup_time_excluded_from_migration_time(self, small_vm):
        ckpt = checkpoint_of(small_vm)
        report = simulate_migration(small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        assert report.setup_time_s > 0
        assert report.checkpoint_write_time_s > 0
        # Total time is checksum-bound here, far below setup+copy.
        assert report.total_time_s < report.setup_time_s + 10

    def test_announce_skipped_when_known(self, small_vm):
        ckpt = checkpoint_of(small_vm)
        known = simulate_migration(
            small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt,
            config=PrecopyConfig(announce_known=True),
        )
        unknown = simulate_migration(
            small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt,
            config=PrecopyConfig(announce_known=False),
        )
        assert known.announce_bytes == 0
        assert unknown.announce_bytes > 0
        assert unknown.total_bytes > known.total_bytes

    def test_ssd_vs_hdd_does_not_change_migration_time(self, small_vm):
        # §4.4: storing the checkpoint on SSD had no impact.
        ckpt = checkpoint_of(small_vm)
        hdd = simulate_migration(
            small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt, dest_disk=HDD_HD204UI
        )
        ssd = simulate_migration(
            small_vm, VECYCLE, LAN_1GBE, checkpoint=ckpt, dest_disk=SSD_INTEL330
        )
        assert hdd.total_time_s == pytest.approx(ssd.total_time_s, rel=0.05)
