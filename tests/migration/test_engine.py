"""Tests for the model's hosts: departure checkpoints and §3.2's announce rule."""

import numpy as np
import pytest

from repro.core.protocol import WireFormat
from repro.core.strategies import QEMU, VECYCLE
from repro.migration.engine import Hosts
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE

MIB = 2**20


def make_vm(seed=3):
    vm = SimVM("vm0", 16 * MIB, dirty_rate_pages_per_s=5, seed=seed)
    vm.image.write_fresh(np.arange(vm.num_pages))
    return vm


# Per move, what the destination announces: "0" the empty announce of a
# first visit, "A" its checkpoint's distinct digests, "-" nothing: QEMU
# announces nothing, nor does a move back to the host the VM last left,
# whose checksums the source learned while receiving it (§3.2).
@pytest.mark.parametrize(
    "path, strategy, announces",
    [
        pytest.param("aba", VECYCLE, "0-", id="ping-pong"),
        # a never saw b's checkpoint: b wrote it when the VM left for c, so
        # the last a→b announces its 4,096 digests (65,541 B).
        pytest.param("abcab", VECYCLE, "00AA", id="three-host"),
        # Every host departs twice, and each departure replaces its checkpoint.
        pytest.param("ababa", VECYCLE, "0---", id="two-round-trips"),
        # Checkpoints are written whatever the strategy, but QEMU reuses none.
        pytest.param("aba", QEMU, "--", id="qemu"),
    ],
)
def test_history(path, strategy, announces):
    vm, hosts = make_vm(), Hosts()
    first = None
    for index, (source, destination) in enumerate(zip(path, path[1:])):
        held = hosts.checkpoints.get((vm.vm_id, destination))
        replaced = hosts.checkpoints.get((vm.vm_id, source))
        report = hosts.migrate(vm, source, destination, strategy, LAN_1GBE)
        first = first or report

        announced = {"-": None, "0": 0, "A": held and len(held.index)}[announces[index]]
        assert report.announce_bytes == (
            0 if announced is None else WireFormat().announce_frame_bytes(announced)
        )
        if held is not None and strategy.reuses_checkpoint:
            assert report.pages_checksum_only > 0.9 * vm.num_pages
            assert report.tx_bytes < first.tx_bytes / 5
        else:
            assert report.pages_full == vm.num_pages

        stored = hosts.checkpoints[(vm.vm_id, source)]
        assert stored is not replaced
        np.testing.assert_array_equal(stored.fingerprint.hashes, vm.fingerprint().hashes)
        assert stored.generation_vector is not None
        assert hosts.last_departed[vm.vm_id] == source
    assert set(hosts.checkpoints) == {(vm.vm_id, host) for host in path[:-1]}


class TestMigrateBetweenHosts:
    def test_first_visit_full_transfer(self):
        vm = make_vm()
        report = Hosts().migrate(vm, "a", "b", VECYCLE, LAN_1GBE)
        assert report.pages_full == vm.num_pages

    def test_source_stores_checkpoint(self):
        hosts = Hosts()
        hosts.migrate(make_vm(), "a", "b", VECYCLE, LAN_1GBE)
        stored = hosts.checkpoints.get(("vm0", "a"))
        assert stored is not None
        assert stored.generation_vector is not None

    def test_return_migration_reuses_checkpoint(self):
        vm, hosts = make_vm(), Hosts()
        hosts.migrate(vm, "a", "b", VECYCLE, LAN_1GBE)
        back = hosts.migrate(vm, "b", "a", VECYCLE, LAN_1GBE)
        assert back.pages_checksum_only > 0.9 * vm.num_pages
        assert back.tx_bytes < vm.memory_bytes / 10

    def test_ping_pong_shortcut_skips_announce(self):
        vm, hosts = make_vm(), Hosts()
        hosts.migrate(vm, "a", "b", VECYCLE, LAN_1GBE)
        back = hosts.migrate(vm, "b", "a", VECYCLE, LAN_1GBE)
        # b learned a's hashes while receiving, so no announce needed.
        assert back.announce_bytes == 0


def test_source_equal_to_destination_is_rejected():
    with pytest.raises(ValueError):
        Hosts().migrate(make_vm(), "a", "a", VECYCLE, LAN_1GBE)
