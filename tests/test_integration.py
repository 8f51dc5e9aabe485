"""Cross-module integration tests.

The strongest check in the suite: the *cost-model simulator* and the
*live runtime* must agree page-for-page on what a VeCycle migration
transfers, because they implement the same protocol at different levels
of abstraction — and the runtime must leave the destination holding the
source's bytes.
"""

import numpy as np
import pytest

from repro.cluster.host import Host
from repro.core.checkpoint import Checkpoint
from repro.core.strategies import VECYCLE
from repro.core.transfer import Method, compute_transfer_set
from repro.mem.image import MemoryImage
from repro.mem.mutation import boot_populate
from repro.migration.engine import ping_pong
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE, WAN_CLOUDNET
from tests.runtime.test_real_bytes import check_against_model

MIB = 2**20


class TestSimulatorMatchesByteProtocol:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transfer_counts_agree(self, seed):
        rng = np.random.default_rng(seed)
        # Build the checkpoint-time image...
        image = MemoryImage(64)
        boot_populate(
            image, rng, used_fraction=0.9, duplicate_fraction=0.1, zero_fraction=0.05
        )
        checkpoint_fp = image.fingerprint()
        # ...then evolve it: fresh writes, relocation, duplication.
        image.write_fresh(image.sample_slots(12, rng))
        image.relocate(image.sample_slots(10, rng), rng)

        # The simulator's transfer set must be what real bytes through a
        # live daemon took, and the hosted image the source's.
        check_against_model(checkpoint_fp.hashes, image.slots)


class TestTraceDrivenMigration:
    def test_trace_similarity_predicts_migration_traffic(self, tiny_trace):
        # Pick two fingerprints 2 hours apart; the simulator's traffic
        # for (current=later, checkpoint=earlier) must track the
        # page-level overlap.
        earlier, later = tiny_trace.fingerprints[0], tiny_trace.fingerprints[4]
        transfer = compute_transfer_set(Method.HASHES, later, checkpoint=earlier)
        in_checkpoint_fraction = transfer.checksum_only_pages / later.num_pages
        similarity = later.similarity_to(earlier)
        # Both measure content overlap; slot-weighted vs unique-weighted
        # differ, but they must agree directionally.
        assert in_checkpoint_fraction == pytest.approx(similarity, abs=0.25)
        assert transfer.full_pages + transfer.checksum_only_pages == later.num_pages


class TestPingPongScenario:
    def test_week_of_ping_pong_total_traffic(self):
        # A consolidation scenario: the VM oscillates between hosts with
        # light activity in between.  Total VeCycle traffic over 6
        # migrations stays far below 6 full copies.
        vm = SimVM("vm", 32 * MIB, dirty_rate_pages_per_s=20,
                   working_set_fraction=0.2, seed=13)
        vm.image.write_fresh(np.arange(vm.num_pages))
        a, b = Host(name="a"), Host(name="b")

        def busy_interval(vm, index):
            vm.run_for(600)

        reports = ping_pong(
            vm, a, b, VECYCLE, LAN_1GBE, round_trips=3,
            between_migrations=busy_interval,
        )
        total = sum(r.tx_bytes for r in reports)
        full_equivalent = 6 * vm.memory_bytes
        assert total < 0.5 * full_equivalent
        # First migration is the expensive one (paper Figure 8's spike).
        assert reports[0].tx_bytes == max(r.tx_bytes for r in reports)

    def test_wan_and_lan_same_traffic_different_time(self):
        vm_lan = SimVM.idle("vm", 32 * MIB, seed=3)
        vm_lan.image.write_fresh(np.arange(vm_lan.num_pages))
        vm_wan = SimVM.idle("vm", 32 * MIB, seed=3)
        vm_wan.image.write_fresh(np.arange(vm_wan.num_pages))

        ckpt = Checkpoint(vm_id="vm", fingerprint=vm_lan.fingerprint())
        from repro.migration.precopy import simulate_migration

        lan = simulate_migration(vm_lan, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        wan = simulate_migration(vm_wan, VECYCLE, WAN_CLOUDNET, checkpoint=ckpt)
        assert lan.tx_bytes == wan.tx_bytes
        assert wan.total_time_s >= lan.total_time_s
