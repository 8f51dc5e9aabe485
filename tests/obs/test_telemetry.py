"""Wire-exportable metrics snapshots: restart rule, the incarnation fold,
cardinality guard."""

from __future__ import annotations

import pytest

from repro.obs.telemetry import (
    MAX_VM_LABELS,
    OVERFLOW_LABEL,
    MetricsSnapshot,
    TelemetrySource,
    merge_instruments,
)
from repro.orchestrator import ClusterRegistry, TelemetryAggregator
from repro.runtime.frames import FrameError

#: Wire bodies that are valid JSON but not a snapshot.
MALFORMED_BODIES = [
    ["not", "a", "snapshot"],
    {"seq": "x"},
    {"per_vm": [1]},
    {"seq": 9, "instruments": {"c": {"type": "counter"}}},
]


def make_source(name="hostA") -> TelemetrySource:
    return TelemetrySource(name)


class TestSnapshotRoundtrip:
    def test_to_dict_from_dict_is_lossless(self):
        source = make_source()
        source.counter("daemon.pages_received").add(7)
        source.gauge("daemon.sessions.active").set(2)
        source.histogram("daemon.round_seconds", (1.0, 10.0)).observe(0.5)
        source.vm_count("vm-1", "recycled_bytes", 4096)
        snapshot = source.snapshot()
        clone = MetricsSnapshot.from_dict(snapshot.to_dict())
        assert clone.host == "hostA"
        assert clone.seq == snapshot.seq == 1
        assert "taken_at" not in snapshot.to_dict()
        assert clone.instruments == snapshot.instruments
        assert clone.per_vm == {"vm-1": {"recycled_bytes": 4096.0}}

    def test_from_dict_tolerates_missing_fields(self):
        snapshot = MetricsSnapshot.from_dict({})
        assert snapshot.host == ""
        assert snapshot.seq == 0
        assert snapshot.instruments == {}

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_from_dict_rejects_a_body_that_is_not_a_snapshot(self, body):
        with pytest.raises(FrameError):
            MetricsSnapshot.from_dict(body)

    def test_seq_advances_per_snapshot_not_per_read(self):
        source = make_source()
        assert source.seq == 0
        source.snapshot()
        source.snapshot()
        assert source.seq == 2


class TestDeltaSemantics:
    """What each poll of one incarnation adds to the aggregator's view, and
    the restart rule the incarnation fold relies on."""

    def test_histogram_delta_diffs_counts_and_sum(self):
        aggregator = make_aggregator()
        source = make_source()
        hist = source.histogram("h", (10.0,))
        hist.observe(5)
        aggregator._ingest("hostA", source.snapshot())
        before = aggregator.host_instruments()["hostA"]["h"]
        hist.observe(50)
        aggregator._ingest("hostA", source.snapshot())
        after = aggregator.host_instruments()["hostA"]["h"]
        assert aggregator.restarts == 0
        # The second poll adds exactly its one observation.
        assert [b - a for a, b in zip(before["counts"], after["counts"])] == [0, 1]
        assert after["total"] - before["total"] == 1
        assert after["sum"] - before["sum"] == pytest.approx(50.0)

    def test_gauge_passes_through_latest_level(self):
        aggregator = make_aggregator()
        source = make_source()
        source.gauge("g").set(10)
        aggregator._ingest("hostA", source.snapshot())
        source.gauge("g").set(4)
        aggregator._ingest("hostA", source.snapshot())
        assert aggregator.restarts == 0
        assert aggregator.host_instruments()["hostA"]["g"]["value"] == 4

    def test_per_vm_delta_drops_unchanged_vms(self):
        aggregator = make_aggregator()
        source = make_source()
        source.vm_count("vm-a", "x", 5)
        source.vm_count("vm-b", "x", 1)
        aggregator._ingest("hostA", source.snapshot())
        before = aggregator.per_vm()
        source.vm_count("vm-a", "x", 2)
        aggregator._ingest("hostA", source.snapshot())
        after = aggregator.per_vm()
        changed = {vm: after[vm]["x"] - before[vm]["x"]
                   for vm in after if after[vm] != before[vm]}
        assert changed == {"vm-a": 2.0}
        assert after == {"vm-a": {"x": 7.0}, "vm-b": {"x": 1.0}}

    def test_seq_regression_is_a_restart(self):
        old = make_source()
        old.counter("c").add(9)
        before = old.snapshot()
        before_again = old.snapshot()
        assert not before_again.restarted_since(before)
        reborn = make_source()  # fresh process: seq starts over
        reborn.counter("c").add(2)
        after = reborn.snapshot()
        assert after.restarted_since(before_again)
        assert after.restarted_since(before)

    def test_no_earlier_snapshot_is_a_restart(self):
        source = make_source()
        source.counter("c").add(1)
        assert source.snapshot().restarted_since(None)

    def test_shrinking_counter_is_a_restart_even_with_higher_seq(self):
        first = MetricsSnapshot(
            host="a", seq=1,
            instruments={"c": {"type": "counter", "value": 100.0}},
        )
        second = MetricsSnapshot(
            host="a", seq=5,
            instruments={"c": {"type": "counter", "value": 3.0}},
        )
        assert second.restarted_since(first)


class TestAccumulateAndMerge:
    """The one fold: hosts, incarnations and per-VM values all merge here."""

    def test_accumulate_adds_counters_and_histograms(self):
        merged = merge_instruments(
            [
                {"c": {"type": "counter", "value": 2.0}, "h": hist_state(5.0, [1, 0])},
                {"c": {"type": "counter", "value": 3.0}, "h": hist_state(50.0, [0, 1])},
            ]
        )
        assert merged["c"]["value"] == 5.0
        assert merged["h"]["counts"] == [1, 1]
        assert merged["h"]["total"] == 2
        assert merged["h"]["sum"] == pytest.approx(55.0)

    def test_accumulate_gauge_is_last_write_wins(self):
        # Across one host's incarnations a gauge is the newest level...
        aggregator = make_aggregator()
        aggregator._ingest("hostA", record(make_source(), gauge=9))
        aggregator._ingest("hostA", record(make_source(), gauge=4))
        assert aggregator.restarts == 1
        assert aggregator.host_instruments()["hostA"]["g"]["value"] == 4.0
        # ...while across hosts, levels still sum.
        aggregator._ingest("hostB", record(make_source("hostB"), gauge=3))
        assert aggregator.cluster_instruments()["g"]["value"] == 7.0

    def test_accumulate_histogram_combines_extremes(self):
        state = merge_instruments(
            [{"h": hist_state(5.0, [1, 0])}, {"h": hist_state(50.0, [0, 1])}]
        )["h"]
        assert state["counts"] == [1, 1]
        assert state["total"] == 2
        assert state["min"] == 5.0 and state["max"] == 50.0
        assert state["mean"] == pytest.approx(27.5)

    def test_merge_sums_counters_and_gauges_across_hosts(self):
        merged = merge_instruments(
            [
                {"c": {"type": "counter", "value": 2.0},
                 "g": {"type": "gauge", "value": 1.0}},
                {"c": {"type": "counter", "value": 5.0},
                 "g": {"type": "gauge", "value": 3.0}},
            ]
        )
        assert merged["c"]["value"] == 7.0
        # Cluster gauge = sum of per-host levels ("active sessions").
        assert merged["g"]["value"] == 4.0

    def test_merge_does_not_mutate_inputs(self):
        one = {"c": {"type": "counter", "value": 1.0}}
        two = {"c": {"type": "counter", "value": 2.0}}
        merge_instruments([one, two])
        assert one["c"]["value"] == 1.0
        assert two["c"]["value"] == 2.0


def hist_state(value: float, counts) -> dict:
    """A one-observation histogram state over the boundary 10."""
    return {
        "type": "histogram", "boundaries": [10.0], "counts": counts,
        "total": 1, "sum": value, "mean": value, "min": value, "max": value,
    }


def make_aggregator() -> TelemetryAggregator:
    return TelemetryAggregator(ClusterRegistry())


def record(source: TelemetrySource, counter=0.0, observe=(), gauge=None, vms=()):
    """Count into ``source`` and return its next snapshot."""
    source.counter("c").add(counter)
    for value in observe:
        source.histogram("h", (1.0, 10.0)).observe(value)
    if gauge is not None:
        source.gauge("g").set(gauge)
    for vm, amount in vms:
        source.vm_count(vm, "recycled_bytes", amount)
    return source.snapshot()


class TestIncarnationFold:
    """The aggregator's view of a host: retired incarnations + last snapshot."""

    def test_one_incarnation_polled_twice_is_its_last_snapshot(self):
        aggregator = make_aggregator()
        source = make_source()
        first = record(source, counter=5, observe=(0.5,), gauge=10, vms=[("vm-a", 4096)])
        aggregator._ingest("hostA", first)
        second = record(source, counter=3, observe=(50.0,), gauge=4, vms=[("vm-a", 1024)])
        aggregator._ingest("hostA", second)
        assert aggregator.restarts == 0
        # Nothing double counted: the view *is* the cumulative snapshot.
        assert aggregator.host_instruments() == {"hostA": second.instruments}
        assert aggregator.cluster_instruments() == second.instruments
        assert aggregator.host_instruments()["hostA"]["c"]["value"] == 8.0
        assert aggregator.per_vm() == {"vm-a": {"recycled_bytes": 5120.0}}

    def test_restart_adds_the_retired_incarnation_to_the_new_one(self):
        aggregator = make_aggregator()
        old = make_source()
        aggregator._ingest("hostA", record(old, counter=5, observe=(0.5,), vms=[("vm-a", 10)]))
        retired = record(old, counter=4, observe=(50.0,), vms=[("vm-a", 5)])
        aggregator._ingest("hostA", retired)
        reborn = make_source()  # seq and every counter start over
        new = record(reborn, counter=2, observe=(5.0, 7.0), vms=[("vm-a", 3), ("vm-b", 1)])
        aggregator._ingest("hostA", new)
        assert aggregator.restarts == 1
        view = aggregator.host_instruments()["hostA"]
        assert view["c"]["value"] == 9.0 + 2.0
        hist, old_hist, new_hist = view["h"], retired.instruments["h"], new.instruments["h"]
        assert hist["counts"] == [a + b for a, b in zip(old_hist["counts"], new_hist["counts"])]
        assert hist["counts"] == [1, 2, 1]
        assert hist["total"] == 4
        assert hist["sum"] == pytest.approx(62.5)
        assert hist["min"] == 0.5 and hist["max"] == 50.0
        assert aggregator.per_vm() == {
            "vm-a": {"recycled_bytes": 18.0},
            "vm-b": {"recycled_bytes": 1.0},
        }

    def test_every_restart_keeps_every_retired_incarnation(self):
        aggregator = make_aggregator()
        for life in range(3):
            aggregator._ingest("hostA", record(make_source(), counter=life + 1))
        assert aggregator.restarts == 2
        assert aggregator.host_instruments()["hostA"]["c"]["value"] == 6.0

    def test_cluster_per_vm_labels_fold_past_the_cap(self):
        aggregator = make_aggregator()
        half = MAX_VM_LABELS // 2 + 8
        for host, offset in (("hostA", 0), ("hostB", half)):
            vms = [(f"vm-{offset + i}", 1) for i in range(half)]
            aggregator._ingest(host, record(make_source(host), vms=vms))
        rollup = aggregator.per_vm()
        assert len(rollup) == MAX_VM_LABELS + 1
        assert rollup[OVERFLOW_LABEL]["recycled_bytes"] == 2 * half - MAX_VM_LABELS
        assert aggregator.labels_folded == 2 * half - MAX_VM_LABELS


class TestDashboardAge:
    def test_age_is_measured_from_receipt_not_the_senders_stamp(self):
        # An older daemon still stamps its wall time; a stamp of 0.0
        # (or a skewed host) must not age the host by decades.
        aggregator = TelemetryAggregator(ClusterRegistry())
        aggregator.registry.register("a", "127.0.0.1", 1)
        aggregator._ingest("a", MetricsSnapshot.from_dict({
            "host": "a", "seq": 1, "taken_at": 0.0,
            "instruments": {}, "per_vm": {},
        }))
        (host,) = aggregator.dashboard_view()["hosts"]
        assert 0.0 <= host["age_s"] < 5
        assert "taken_at" not in aggregator.dashboard_view()


class TestCardinalityGuard:
    def test_per_vm_series_fold_past_the_cap(self):
        source = make_source()
        vms = [f"vm-{i}" for i in range(MAX_VM_LABELS + 2)]
        for vm in vms:
            source.vm_count(vm, "x", 1)
        snapshot = source.snapshot()
        assert set(snapshot.per_vm) == {*vms[:MAX_VM_LABELS], OVERFLOW_LABEL}
        assert snapshot.per_vm[OVERFLOW_LABEL]["x"] == 2.0
        assert (
            snapshot.instruments["telemetry.labels_folded"]["value"] == 2.0
        )

    def test_existing_vm_keeps_counting_past_the_cap(self):
        source = make_source()
        for i in range(MAX_VM_LABELS + 1):  # the last one folds
            source.vm_count(f"vm-{i}", "x", 1)
        source.vm_count("vm-0", "x", 1)  # still direct
        snapshot = source.snapshot()
        assert snapshot.per_vm["vm-0"]["x"] == 2.0
