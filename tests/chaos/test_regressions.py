"""Pinned-seed regressions for bugs the chaos soak shook out.

Each test here fails on the pre-fix code.  The live ones use the exact
deterministic fault recipe the soak found the bug with, so a regression
reproduces with the same bytes on the wire every run.
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE, VECYCLE_DIRTY
from repro.mem.pagestore import PageStore
from repro.obs.metrics import get_registry
from repro.orchestrator.executor import MigrationExecutor
from repro.runtime import (
    CheckpointDaemon,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.runtime.sink import SinkProtocolError
from repro.runtime.faults import FaultInjector
from repro.runtime.frames import FrameCodec

N = 256
CHAOS_CONFIG = RuntimeConfig(
    io_timeout_s=0.3,
    connect_timeout_s=2.0,
    retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.02),
    time_scale=0.0,
)


def build_vm(seed: int = 5, updates: int = 32):
    """(checkpoint hashes, current hashes, dirty slots) — pinned RNG."""
    rng = np.random.default_rng(seed)
    checkpoint = rng.integers(1, 2**62, size=N, dtype=np.uint64)
    current = checkpoint.copy()
    dirty = np.sort(rng.choice(N, size=updates, replace=False))
    current[dirty] = rng.integers(2**62, 2**63, size=updates, dtype=np.uint64)
    return checkpoint, current, dirty


async def _run_with_plan(
    plan, max_attempts=2, vm=None, strategy=VECYCLE, install=True, sessions=None
):
    """One executor-driven migration against a daemon with ``plan``.

    ``sessions`` (a list) receives the source's session id at every
    connection it opens.
    """
    pagestore = PageStore()
    checkpoint, current, dirty = vm or build_vm()
    async with CheckpointDaemon(pagestore=pagestore) as daemon:
        if install:
            daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
        daemon.faults = plan
        source = MigrationSource(
            SourceState(
                vm_id="vm",
                hashes=current,
                pagestore=pagestore,
                dirty_slots=dirty,
            ),
            strategy,
            config=replace(
                CHAOS_CONFIG,
                retry=replace(CHAOS_CONFIG.retry, max_attempts=max_attempts),
                on_stream=(
                    None
                    if sessions is None
                    else lambda _stream: sessions.append(source.session_id)
                ),
            ),
        )
        outcome = await MigrationExecutor().run(
            source, "dest", daemon.host, daemon.port
        )
        return outcome, daemon.telemetry


# --- bug: truncated READY desync classified as a fatal protocol error ---


@pytest.mark.parametrize("cut", [1, 4, 8])
def test_truncated_ready_desync_is_retried(cut):
    """A READY frame short by a few bytes desyncs the reply stream.

    Pre-fix the source surfaced the garbage it then parsed (an unknown
    tag, or an impossible applied-count over-claim) as a non-retryable
    ``protocol`` error and the migration died on attempt 1.  Both are
    connection-shaped faults: a fresh session recovers, so the source
    must reconnect — deterministically, for every truncation size.
    """
    outcome, telemetry = asyncio.run(
        _run_with_plan(FaultInjector(truncate_ready_bytes=cut, truncate_times=1))
    )
    assert outcome.ok, f"cut={cut}: {outcome.error_code}: {outcome.error}"
    assert outcome.attempts == 2
    assert telemetry.counter("daemon.injected_truncations").value == 1


def test_truncation_exhausting_attempts_reports_desync():
    """With no attempts left, the failure keeps its desync classification."""
    outcome, _ = asyncio.run(
        _run_with_plan(
            FaultInjector(truncate_ready_bytes=4, truncate_times=4),
            max_attempts=1,
        )
    )
    assert not outcome.ok
    assert outcome.attempts == 1
    assert outcome.error_code in ("protocol", "desync")


# --- bug: mid-RESULT drop must not double-install the checkpoint ---


def test_mid_result_replay_installs_one_generation():
    """An abort with RESULT on the wire replays the acknowledgement.

    The session is already committed when the connection dies; the
    reconnect must replay the RESULT, not re-adopt the checkpoint under
    a second generation or complete the session twice.
    """
    outcome, telemetry = asyncio.run(
        _run_with_plan(FaultInjector(mid_result=True, times=1))
    )
    assert outcome.ok
    assert outcome.checkpoint_generation == 2  # install=1, migration=2
    assert telemetry.counter("daemon.sessions.completed").value == 1


# --- bug: a round resumed twice broke validate()'s bound -----------------


def _half_rewritten_vm(num_pages=1024):
    rng = np.random.default_rng(23)
    checkpoint = rng.integers(1, 2**62, size=num_pages, dtype=np.uint64)
    current = checkpoint.copy()
    dirty = np.sort(rng.choice(num_pages, size=num_pages // 2, replace=False))
    current[dirty] = rng.integers(
        2**62, 2**63, size=dirty.size, dtype=np.uint64
    )
    return checkpoint, current, dirty


def test_second_mid_round_disconnect_keeps_the_account():
    """Two aborts in one round re-send more than the payload — legally.

    Pre-fix ``MigrationMetrics.validate()`` required ``retransmitted <=
    payload``, which a round aborted twice at message 300 breaks (each
    resume re-sends the in-flight tail), and the ``ValueError:
    retransmitted bytes exceed counted payload`` escaped ``migrate()``
    and ``MigrationExecutor.run``, which promises never to raise.
    """
    outcome, _ = asyncio.run(
        _run_with_plan(
            FaultInjector(after_messages=300, times=2),
            max_attempts=4,
            vm=_half_rewritten_vm(),
        )
    )
    assert outcome.ok, f"{outcome.error_code}: {outcome.error}"
    # 512 full frames of 4,121 B + 512 checksum frames of 25 B.
    assert outcome.metrics.payload_bytes == 2_122_752
    assert outcome.metrics.retransmitted_bytes > outcome.metrics.payload_bytes
    assert outcome.metrics.retries == 2
    assert outcome.attempts == 3


# --- satellite: what the one retry loop retries ---------------------------


def test_executor_retries_retryable_protocol_with_fresh_session():
    sessions = []
    outcome, _ = asyncio.run(
        _run_with_plan(
            FaultInjector(truncate_ready_bytes=4, truncate_times=1),
            sessions=sessions,
        )
    )
    assert outcome.ok
    assert outcome.attempts == 2
    # Desynced sessions cannot be resumed: the retry must start clean.
    assert len(sessions) == 2 and sessions[0] != sessions[1]


def test_executor_fails_fast_on_codec_violation():
    # Dirty tracking with no checkpoint at the destination: the daemon
    # answers HELLO with a structured ERROR no reconnect can cure.
    sessions = []
    outcome, _ = asyncio.run(
        _run_with_plan(
            FaultInjector(),
            max_attempts=3,
            strategy=VECYCLE_DIRTY,
            install=False,
            sessions=sessions,
        )
    )
    assert not outcome.ok
    assert outcome.error_code == "protocol"
    assert outcome.attempts == 1
    assert len(sessions) == 1


def test_executor_transport_retry_keeps_session():
    sessions = []
    outcome, _ = asyncio.run(
        _run_with_plan(
            FaultInjector(after_messages=100, times=1), sessions=sessions
        )
    )
    assert outcome.ok
    assert outcome.attempts == 2
    # A transport drop's applied counts are exact; resume, don't reset.
    assert len(sessions) == 2 and sessions[0] == sessions[1]


# --- satellite: shared capped-exponential backoff -------------------------


def test_backoff_is_capped_exponential():
    policy = RetryPolicy(
        max_attempts=8,
        base_backoff_s=0.1,
        max_backoff_s=0.5,
        jitter=0.0,
    )
    assert policy.backoff(0) == pytest.approx(0.1)
    assert policy.backoff(1) == pytest.approx(0.2)
    assert policy.backoff(2) == pytest.approx(0.4)
    assert policy.backoff(3) == pytest.approx(0.5)  # capped
    assert policy.backoff(30) == pytest.approx(0.5)  # no overflow blowup


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(
        max_attempts=4,
        base_backoff_s=0.1,
        max_backoff_s=2.0,
        jitter=0.25,
    )
    for index in range(4):
        a = policy.backoff(index, key="vm-a")
        assert a == policy.backoff(index, key="vm-a")  # pure function
        base = min(0.1 * 2.0**index, 2.0)
        assert base * 0.75 <= a <= base * 1.25
    # Different VMs decorrelate: not every attempt sleeps identically.
    assert any(
        policy.backoff(i, key="vm-a") != policy.backoff(i, key="vm-b")
        for i in range(4)
    )


def test_retry_policy_rejects_bad_jitter():
    with pytest.raises(ValueError, match="jitter"):
        RetryPolicy(jitter=1.5)


# --- satellite: drop_checkpoint frees durable bytes, keeps the generation --


def test_drop_checkpoint_frees_durable_and_keeps_the_generation(tmp_path):
    daemon = CheckpointDaemon(name="drop-host", state_dir=tmp_path)
    checkpoint, current, _ = build_vm()
    daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
    daemon.install_checkpoint("vm", Fingerprint(hashes=current))
    assert daemon._generations["vm"] == 2
    distinct = len(set(daemon.checkpoints["vm"].slot_digests))
    resident_bytes = distinct * daemon.pagestore.page_size

    freed = daemon.drop_checkpoint("vm")

    # Pre-fix: freed == resident bytes only.
    assert freed > resident_bytes  # durable segment bytes counted too
    # The generation counter must survive the drop (a restart at 1
    # would let a stale source earn a bogus verified skip).
    assert daemon._generations["vm"] == 2
    assert daemon.audit_store() == []
    hosted = daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
    assert hosted.generation == 3


# --- satellite: cleanup failures are counted, not swallowed ---------------


class _BrokenStream:
    async def send(self, payload: bytes) -> None:
        raise ConnectionError("peer vanished")


def test_undeliverable_error_frame_is_counted():
    daemon = CheckpointDaemon(name="count-host")
    before = get_registry().counter("daemon.close_errors").value
    asyncio.run(
        daemon._send_error(_BrokenStream(), SinkProtocolError("bad-hello", "x"))
    )
    assert get_registry().counter("daemon.close_errors").value == before + 1
    assert daemon.telemetry.counter("daemon.close_errors").value == 1


# --- bug: a desynced inbound stream must poison its session ---------------


def test_desynced_stream_retires_session_and_releases_refs():
    """Garbage after HELLO retires the session instead of keeping it.

    A desynced stream may have applied frames assembled from misaligned
    bytes; offering that session as a resume point would hand the
    source corrupt applied-counts.  The daemon must drop the session,
    release its content references, and answer with a ``desync`` ERROR.
    """

    async def scenario():
        pagestore = PageStore()
        checkpoint, _, _ = build_vm()
        async with CheckpointDaemon(pagestore=pagestore) as daemon:
            daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
            reader, writer = await asyncio.open_connection(
                daemon.host, daemon.port
            )
            codec = FrameCodec()
            writer.write(
                codec.encode_hello(
                    {
                        "session": "poison-1",
                        "vm_id": "vm",
                        "num_pages": N,
                        "mode": VECYCLE.method.value,
                        "page_size": pagestore.page_size,
                        "digest_size": VECYCLE.checksum.digest_size,
                        "algorithm": VECYCLE.checksum.name,
                    }
                )
            )
            await writer.drain()
            await reader.read(1)  # READY started: the session exists
            writer.write(b"\xee" + b"\x00" * 64)  # unknown tag: desync
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            return daemon.telemetry, dict(daemon._sessions), daemon.audit_store(), reply

    telemetry, sessions, audit, reply = asyncio.run(scenario())
    assert telemetry.counter("daemon.sessions.poisoned").value == 1
    assert "poison-1" not in sessions
    assert audit == []  # every remaining ref explained by the checkpoint
    assert b"desync" in reply


# --- bug: quarantined segments must re-spill on re-adoption ---------------


def test_adoption_respills_quarantined_segment(tmp_path):
    daemon = CheckpointDaemon(name="respill-host", state_dir=tmp_path)
    checkpoint, _, _ = build_vm()
    hosted = daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
    digest = hosted.slot_digests[0]
    assert daemon.repository.has_page(digest)

    assert daemon.repository.corrupt_segment(digest)
    report = daemon.repository.verify()
    assert report.corrupt_segments  # the scrub caught the damage
    assert not daemon.repository.has_page(digest)

    # Re-adopting content the daemon still holds resident must re-spill
    # the quarantined segment before committing the new manifest
    # (pre-fix: commit_checkpoint raised on the missing segment).
    daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
    assert daemon.telemetry.counter("daemon.respilled_segments").value >= 1
    assert daemon.repository.has_page(digest)
    assert not daemon.repository.verify().corrupt_segments


# --- bug: stop() must cancel handlers sleeping in injected stalls ---------


def test_stop_cancels_stalled_handlers_cleanly():
    """A handler mid-stall must not outlive (or spam) the event loop.

    Pre-fix, ``stop()`` closed the server but left connection handlers
    running; one sleeping in an injected READY stall survived until
    loop teardown cancelled it, and asyncio's callback then logged a
    CancelledError through the loop exception handler.
    """

    async def scenario():
        captured = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, ctx: captured.append(ctx)
        )
        pagestore = PageStore()
        checkpoint, _, _ = build_vm()
        daemon = CheckpointDaemon(pagestore=pagestore)
        await daemon.start()
        daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
        daemon.faults = FaultInjector(stall_ready_s=30.0, stall_times=1)
        reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
        codec = FrameCodec()
        writer.write(
            codec.encode_hello(
                {
                    "session": "stalled-1",
                    "vm_id": "vm",
                    "num_pages": N,
                    "mode": VECYCLE.method.value,
                    "page_size": pagestore.page_size,
                    "digest_size": VECYCLE.checksum.digest_size,
                    "algorithm": VECYCLE.checksum.name,
                }
            )
        )
        await writer.drain()
        await asyncio.sleep(0.1)  # handler is now asleep in the stall
        assert daemon._handlers

        start = asyncio.get_running_loop().time()
        await daemon.stop()
        elapsed = asyncio.get_running_loop().time() - start

        writer.close()
        await asyncio.sleep(0.05)  # let any stray callbacks fire
        current = asyncio.current_task()
        leaked = [t for t in asyncio.all_tasks() if t is not current]
        return elapsed, daemon._handlers, leaked, captured

    elapsed, handlers, leaked, captured = asyncio.run(scenario())
    assert elapsed < 5.0  # did not wait out the 30s stall
    assert not handlers
    assert leaked == []
    assert captured == []


# --- bug class: the telemetry-loss fault knob must be observable ----------


def test_telemetry_drop_knob_aborts_probe_and_counts():
    """``drop_telemetry_times`` drops exactly N probes, visibly.

    The soak's ``telemetry_loss`` kind arms this knob; the contract is
    that the armed probe dies unanswered (aggregator counts a failure,
    keeps its history) while ``daemon.injected_telemetry_drops`` records
    the injection, and the very next probe succeeds.
    """

    async def scenario():
        from repro.orchestrator.registry import ClusterRegistry
        from repro.orchestrator.telemetry import TelemetryAggregator

        registry = ClusterRegistry(heartbeat_timeout_s=1.0)
        aggregator = TelemetryAggregator(registry)
        async with CheckpointDaemon(name="lossy") as daemon:
            daemon.faults = FaultInjector(drop_telemetry_times=1)
            registry.register("lossy", daemon.host, daemon.port)
            dropped = await aggregator.poll("lossy")
            recovered = await aggregator.poll("lossy")
            return dropped, recovered, aggregator, daemon.telemetry

    dropped, recovered, aggregator, telemetry = asyncio.run(scenario())
    assert dropped is None
    assert recovered is not None
    assert aggregator.poll_failures == 1
    assert telemetry.counter("daemon.injected_telemetry_drops").value == 1


# --- bug: an ERROR-frame opener fell through to the HELLO path ------------


def test_error_frame_opener_is_dropped_and_counted():
    """A peer opening with ERROR is logged and closed, not a protocol bug.

    Before the opener dispatch table, an ERROR first frame raised
    ``bad-hello`` and bounced an ERROR back at the erroring peer.  Now
    it lands in the ``daemon.peer_errors`` arm: counted, logged, and
    the connection closed without a reply.
    """

    async def scenario():
        async with CheckpointDaemon(name="patient") as daemon:
            reader, writer = await asyncio.open_connection(
                daemon.host, daemon.port
            )
            codec = FrameCodec()
            writer.write(
                codec.encode_error(
                    {"code": "confused-controller", "message": "oops"}
                )
            )
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            return reply, daemon.telemetry

    reply, telemetry = asyncio.run(scenario())
    assert reply == b""  # closed without bouncing an ERROR back
    assert telemetry.counter("daemon.peer_errors").value == 1
