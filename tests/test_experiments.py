"""Smoke and shape tests for the experiment drivers.

These run every driver at reduced scale and assert the *shape* of each
paper result — orderings, monotonicity, crossovers — not absolute
numbers.  The full-scale runs live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.core.checkpoint import Checkpoint
from repro.core.strategies import VECYCLE
from repro.core.transfer import Method
from repro.experiments import (
    fig1_similarity,
    fig2_week,
    fig4_duplicates,
    fig5_methods,
    fig6_best_case,
    fig7_updates,
    fig8_vdi,
    rates,
    table1,
)
from repro.mem.mutation import fill_ramdisk
from repro.migration.precopy import PrecopyConfig, simulate_migration
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE
from repro.traces.presets import SERVER_A, SERVER_C


class TestTable1:
    def test_rows_match_catalog(self):
        rows = table1.run()
        names = [row["name"] for row in rows]
        assert "Server A" in names and "Desktop" in names

    def test_format(self):
        text = table1.format_table(table1.run())
        assert "00065BEE5AA7" in text


class TestFig1:
    @pytest.fixture(scope="class")
    def results(self):
        return fig1_similarity.run(
            machines=(SERVER_A,), num_epochs=96, max_pairs_per_bin=20
        )

    def test_similarity_decays(self, results):
        decay = results["Server A"]
        assert decay.at_hours(2)[1] > decay.at_hours(20)[1]

    def test_band_ordering(self, results):
        decay = results["Server A"]
        lo, avg, hi = decay.at_hours(12)
        assert lo <= avg <= hi

    def test_format(self, results):
        assert "Server A" in fig1_similarity.format_table(results)


class TestFig2:
    def test_week_plateau(self):
        decay = fig2_week.run(num_epochs=336, max_pairs_per_bin=12)
        # §6: "Even after one week about 20% of the memory content is
        # unchanged."
        week = decay.at_hours(166)[1]
        assert 0.10 < week < 0.40
        text = fig2_week.format_table(decay)
        assert "Server C" in text


class TestFig4:
    def test_ranges(self):
        results = fig4_duplicates.run(machines=(SERVER_A, SERVER_C), num_epochs=48)
        for series in results.values():
            assert 0.02 < series.mean_duplicate_fraction < 0.45
            assert series.mean_zero_fraction < 0.10
        # Server C has more duplicates but fewer zeros than Server A (§4.2).
        assert (
            results["Server C"].mean_duplicate_fraction
            > results["Server A"].mean_duplicate_fraction
        )
        assert (
            results["Server C"].mean_zero_fraction
            < results["Server A"].mean_zero_fraction
        )
        assert "Server C" in fig4_duplicates.format_table(results)


class TestFig5:
    def test_orderings(self):
        result = fig5_methods.run(machines=(SERVER_A,), num_epochs=96, max_pairs=120)
        bars = result.bar_fractions("Server A")
        assert bars[Method.DEDUP] > bars[Method.DIRTY] > bars[Method.DIRTY_DEDUP]
        assert bars[Method.HASHES_DEDUP] <= bars[Method.HASHES]
        assert bars[Method.HASHES_DEDUP] < bars[Method.DIRTY_DEDUP]
        reduction = result.reduction_cdf("Server A")
        assert np.median(reduction) >= 0.0
        assert "hashes" in fig5_methods.format_table(result)


class TestFig6:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig6_best_case.run(sizes_mib=(256, 512))

    def test_vecycle_beats_qemu_everywhere(self, rows):
        for size in (256, 512):
            for link in ("lan-1gbe", "wan-cloudnet"):
                assert fig6_best_case.reduction_percent(rows, size, link) > 50

    def test_time_grows_with_size(self, rows):
        by_key = {(r.size_mib, r.link, r.strategy): r.time_s for r in rows}
        assert by_key[(512, "lan-1gbe", "qemu")] > by_key[(256, "lan-1gbe", "qemu")]
        assert by_key[(512, "lan-1gbe", "vecycle")] > by_key[(256, "lan-1gbe", "vecycle")]

    def test_wan_benefit_larger_than_lan(self, rows):
        lan = fig6_best_case.reduction_percent(rows, 512, "lan-1gbe")
        wan = fig6_best_case.reduction_percent(rows, 512, "wan-cloudnet")
        assert wan > lan

    def test_traffic_reduction_two_orders(self, rows):
        tx = {(r.strategy): r.tx_gib for r in rows
              if r.size_mib == 512 and r.link == "wan-cloudnet"}
        assert tx["vecycle"] < tx["qemu"] / 20

    def test_format(self, rows):
        assert "VeCycle time reduction" in fig6_best_case.format_table(rows)


class TestFig7:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig7_updates.run(memory_mib=256, updates_percent=(0, 50, 100))

    def test_vecycle_time_grows_with_updates(self, rows):
        vecycle_lan = {
            r.updates_percent: r.time_s
            for r in rows
            if r.strategy == "vecycle" and r.link == "lan-1gbe"
        }
        assert vecycle_lan[0] < vecycle_lan[50] < vecycle_lan[100]

    def test_qemu_baseline_flat(self, rows):
        qemu_lan = {
            r.updates_percent: r.time_s
            for r in rows
            if r.strategy == "qemu" and r.link == "lan-1gbe"
        }
        assert max(qemu_lan.values()) == pytest.approx(min(qemu_lan.values()), rel=0.05)

    def test_vecycle_approaches_baseline_at_100(self, rows):
        cells = {
            (r.strategy, r.updates_percent): r
            for r in rows
            if r.link == "wan-cloudnet"
        }
        full = cells[("qemu", 100)]
        worst = cells[("vecycle", 100)]
        assert worst.tx_gib <= full.tx_gib
        assert worst.tx_gib > 0.8 * full.tx_gib * 0.9  # ramdisk covers 90%

    def test_traffic_proportional_to_updates(self, rows):
        vecycle = {
            r.updates_percent: r.tx_gib
            for r in rows
            if r.strategy == "vecycle" and r.link == "lan-1gbe"
        }
        assert vecycle[50] == pytest.approx(
            (vecycle[0] + vecycle[100]) / 2, rel=0.15
        )

    def test_format(self, rows):
        assert "Updates" in fig7_updates.format_table(rows)

    def test_a_checksum_variant_keeps_its_checksum(self):
        # A cell travels to its worker by name; the hash must travel too.
        sha256 = VECYCLE.with_checksum("sha256")
        (row,) = fig7_updates.run(
            updates_percent=(0,), links=(LAN_1GBE,), strategies=(sha256,),
            memory_mib=256,
        )
        vm = SimVM("ramdisk-vm", 256 * 2**20, dirty_rate_pages_per_s=0.0, seed=7)
        fill_ramdisk(vm.image, fraction=0.90)
        checkpoint = Checkpoint(
            vm_id=vm.vm_id,
            fingerprint=vm.fingerprint(),
            generation_vector=vm.tracker.snapshot(),
        )
        reports = {
            strategy.checksum.name: simulate_migration(
                vm, strategy, LAN_1GBE, checkpoint=checkpoint,
                config=PrecopyConfig(announce_known=True),
            )
            for strategy in (sha256, VECYCLE.with_checksum("md5"), VECYCLE)
        }
        assert reports["sha256"].total_time_s != reports["md5"].total_time_s
        # 32-byte digests: what sets sha256 apart from sha256-128.
        assert reports["sha256"].tx_bytes != reports["sha256-128"].tx_bytes
        assert row.report == reports["sha256"]


class TestFig8:
    def test_small_replay(self):
        result = fig8_vdi.run(num_epochs=5 * 48)
        assert result.num_migrations == 8  # 4 weekdays in 5 trace days
        assert result.fraction_of_baseline(Method.HASHES_DEDUP) < (
            result.fraction_of_baseline(Method.DEDUP)
        )
        assert "baseline" in fig8_vdi.format_table(result)


class TestRates:
    def test_md5_not_bottleneck_on_gigabit(self):
        rows = {row.algorithm: row for row in rates.run(measure_bytes=1 << 20)}
        assert "lan-1gbe" not in rows["md5"].bottleneck_on
        assert "lan-40gbe" in rows["md5"].bottleneck_on

    def test_announce_size(self):
        from repro.core.checksum import MD5

        assert rates.announce_size_bytes(4 * 2**30, MD5) == 16 * 2**20

    def test_format(self):
        assert "16 MiB" in rates.format_table(rates.run(measure_bytes=1 << 20))
