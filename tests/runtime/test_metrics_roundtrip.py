"""MigrationMetrics: dict round-trip and internal-consistency checks."""

from __future__ import annotations

import pytest

from repro.runtime.metrics import MigrationMetrics, RoundMetrics


def _sample() -> MigrationMetrics:
    metrics = MigrationMetrics(vm_id="vm0", mode="vecycle", link="loopback")
    metrics.count("full", 4128)
    metrics.count("full", 4128)
    metrics.count("checksum", 25)
    metrics.announce_bytes = 6200
    metrics.control_bytes = 350
    metrics.retries = 1
    metrics.retransmitted_bytes = 4128
    metrics.pages_full = 2
    metrics.pages_checksum_only = 1
    metrics.pages_skipped = 3
    metrics.checksummed_pages = 6
    metrics.rounds = [
        RoundMetrics(round_no=1, messages=3, bytes_sent=8281, duration_s=0.01),
        RoundMetrics(round_no=2, messages=1, bytes_sent=4128, duration_s=0.002),
    ]
    metrics.wall_time_s = 0.25
    metrics.modelled_time_s = 1.5
    metrics.outcome = "completed"
    metrics.sink_stats = {"reused_in_place": 1, "reused_from_store": 0,
                          "unique_contents": 2}
    return metrics


def test_to_dict_from_dict_round_trip():
    original = _sample()
    rebuilt = MigrationMetrics.from_dict(original.to_dict())
    assert rebuilt.to_dict() == original.to_dict()
    # derived quantities survive too
    assert rebuilt.payload_bytes == original.payload_bytes
    assert rebuilt.total_bytes == original.total_bytes
    assert rebuilt.num_rounds == 2
    assert rebuilt.messages == original.messages
    assert rebuilt.rounds[1].bytes_sent == 4128


def test_from_dict_tolerates_minimal_payload():
    rebuilt = MigrationMetrics.from_dict(
        {"vm_id": "v", "mode": "qemu", "link": "unshaped"}
    )
    assert rebuilt.payload_bytes == 0
    assert rebuilt.outcome == "pending"
    assert rebuilt.rounds == []


def test_validate_accepts_consistent_metrics():
    _sample().validate()


def test_validate_rejects_negative_retransmit():
    metrics = _sample()
    metrics.retransmitted_bytes = -1
    with pytest.raises(ValueError, match="negative"):
        metrics.validate()


def test_validate_rejects_retransmit_exceeding_payload():
    metrics = _sample()
    metrics.retransmitted_bytes = metrics.payload_bytes + 1
    with pytest.raises(ValueError, match="double-counted"):
        metrics.validate()


def test_validate_rejects_retransmit_without_retry():
    metrics = _sample()
    metrics.retries = 0
    with pytest.raises(ValueError, match="without any retry"):
        metrics.validate()
