"""The public API surface: imports, __all__, and the quickstart path."""

import numpy as np


class TestPublicImports:
    def test_top_level_all_resolves(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_resolves(self):
        import repro.analysis
        import repro.cluster
        import repro.core
        import repro.mem
        import repro.migration
        import repro.net
        import repro.storage
        import repro.traces

        for module in (
            repro.analysis,
            repro.cluster,
            repro.core,
            repro.mem,
            repro.migration,
            repro.net,
            repro.storage,
            repro.traces,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_version(self):
        import repro

        assert repro.__version__


class TestQuickstart:
    def test_docstring_quickstart_runs(self):
        from repro import (
            Checkpoint,
            LAN_1GBE,
            QEMU,
            SimVM,
            VECYCLE,
            simulate_migration,
        )
        from repro.mem import boot_populate

        vm = SimVM.idle("vm0", memory_bytes=64 * 2**20)
        boot_populate(
            vm.image,
            np.random.default_rng(0),
            used_fraction=0.95,
            duplicate_fraction=0.08,
            zero_fraction=0.03,
        )
        checkpoint = Checkpoint(vm_id="vm0", fingerprint=vm.fingerprint())
        fast = simulate_migration(vm, VECYCLE, LAN_1GBE, checkpoint=checkpoint)
        slow = simulate_migration(vm, QEMU, LAN_1GBE)
        assert fast.total_time_s < slow.total_time_s
        assert fast.tx_bytes < slow.tx_bytes
