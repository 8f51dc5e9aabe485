"""Placement policy semantics: deterministic unit tests (ISSUE S3)."""

import pytest

from repro.orchestrator.inventory import (
    ClusterView,
    HostInventory,
    digest_sketch,
)
from repro.orchestrator.placement import (
    BestCheckpoint,
    DestinationSwap,
    PlacementError,
    PlacementRequest,
    available_policies,
    get_policy,
)


def sketch_of(ids):
    return tuple(digest_sketch([bytes([i % 256, i // 256]) * 8 for i in ids]))


def view_of(hosts):
    """hosts: name → (active_sessions, {vm_id: page-id list})."""
    return ClusterView(
        inventories={
            name: HostInventory(
                active_sessions=busy,
                checkpoints={vm: sketch_of(ids) for vm, ids in checkpoints.items()},
            )
            for name, (busy, checkpoints) in hosts.items()
        }
    )


CURRENT = list(range(0, 64))


def request(source="src"):
    return PlacementRequest(
        vm_id="vm",
        source_host=source,
        sketch=sketch_of(CURRENT),
    )


class TestBestCheckpoint:
    def test_prefers_host_with_higher_similarity_sketch(self):
        view = view_of(
            {
                "src": (0, {}),
                "close": (0, {"vm": list(range(0, 56))}),
                "far": (0, {"vm": list(range(48, 112))}),
            }
        )
        decision = BestCheckpoint().decide(request(), view)
        assert decision.destination == "close"
        assert decision.scores["close"] > decision.scores["far"] > 0.0

    def test_source_host_never_chosen(self):
        view = view_of({"src": (0, {"vm": CURRENT}), "other": (0, {})})
        decision = BestCheckpoint().decide(request(), view)
        assert decision.destination == "other"

    def test_cross_vm_checkpoints_count_at_a_discount(self):
        view = view_of(
            {
                "src": (0, {}),
                "own": (0, {"vm": list(range(0, 32))}),
                "neighbor": (0, {"other-vm": CURRENT}),
            }
        )
        weight = 0.25
        decision = BestCheckpoint(cross_vm_weight=weight).decide(request(), view)
        # The neighbor's perfect cross-VM match is discounted below the
        # VM's own imperfect history.
        assert decision.destination == "own"
        assert decision.scores["neighbor"] == pytest.approx(weight)
        ignoring = BestCheckpoint(cross_vm_weight=0.0).decide(request(), view)
        assert ignoring.scores["neighbor"] == 0.0

    def test_no_checkpoint_falls_back_to_least_loaded_then_name(self):
        view = view_of({"src": (0, {}), "busy": (2, {}), "calm": (0, {})})
        decision = BestCheckpoint().decide(request(), view)
        assert decision.destination == "calm"
        assert decision.score == 0.0
        tie = view_of({"src": (0, {}), "bb": (0, {}), "aa": (0, {})})
        assert BestCheckpoint().decide(request(), tie).destination == "aa"

    def test_empty_cluster_raises_placement_error(self):
        with pytest.raises(PlacementError):
            BestCheckpoint().decide(request(), view_of({"src": (0, {})}))

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            BestCheckpoint(cross_vm_weight=1.5)


class TestDestinationSwap:
    def test_converges_on_two_host_ping_pong(self):
        policy = DestinationSwap()
        view = view_of({"a": (0, {}), "b": (0, {})})
        location = "a"
        visits = []
        for _ in range(6):
            decision = policy.decide(
                PlacementRequest(vm_id="vm", source_host=location), view
            )
            policy.record_migration("vm", location, decision.destination)
            location = decision.destination
            visits.append(location)
        # First move is the fallback; every later move swaps back.
        assert visits == ["b", "a", "b", "a", "b", "a"]
        assert policy.decide(
            PlacementRequest(vm_id="vm", source_host="a"), view
        ).score == 1.0

    def test_unknown_vm_uses_fallback(self):
        policy = DestinationSwap()
        view = view_of({"a": (0, {}), "b": (1, {}), "c": (0, {})})
        decision = policy.decide(
            PlacementRequest(vm_id="new-vm", source_host="a"), view
        )
        assert decision.destination == "c"  # least loaded, then name
        assert decision.score == 0.0

    def test_dead_swap_partner_degrades_to_fallback(self):
        policy = DestinationSwap()
        policy.record_migration("vm", "gone", "a")
        view = view_of({"a": (0, {}), "b": (0, {})})
        decision = policy.decide(
            PlacementRequest(vm_id="vm", source_host="a"), view
        )
        assert decision.destination == "b"


class TestRegistry:
    def test_get_policy_round_trip(self):
        for name in available_policies():
            assert get_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            get_policy("random")
