"""The traced run: per-layer probes on the workload's own scenario.

A layer is a module of the program; each probe times that module's
public functions from outside, inside a harness span.  The probes run
after a short end-to-end pass of the same workload, half of it with the
program's own tracer on, which gives the tracing overhead and lets the
last metric check that the layers sum to the end-to-end figure.

A probe whose function is missing or raises yields ``null`` and a note
for its metrics; it never stops the run.  The end-to-end pass is not a
probe: a wrong migration there fails the run like in the untraced form.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.live import obsaccess
from benchmarks.live import workloads as wl
from benchmarks.live.spans import SpanRecorder

PAGE = wl.PAGE_SIZE
LOCALHOST = "127.0.0.1"

REPOSITORY_PAGE_CAP = 4096
"""The repository probe writes at most this many segments: without a
tmpfs each costs a real fsync."""


@dataclass
class Context:
    """What the probes share; later probes read what earlier ones left."""

    workload: wl.Workload
    seed: int
    quick: bool
    spans: SpanRecorder
    loop: asyncio.AbstractEventLoop
    scenario: Any = None
    e2e_p50_s: Optional[float] = None
    fleet_rig: Optional[wl.FleetRig] = None
    cleanup: List[Callable[[], None]] = field(default_factory=list)
    # Left behind by probes for the ones after them.
    store: Any = None
    daemon: Any = None
    announced: Any = None
    slot_digests: Any = None
    frames: Any = None
    null_sink_s: Optional[float] = None
    replay_s: Optional[float] = None

    @property
    def guest_mib(self) -> float:
        return self.scenario.num_pages * PAGE / wl.MIB


def _median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3


# --- the end-to-end pass ------------------------------------------------------


def end_to_end_pass(ctx: Context) -> Tuple[List[wl.Sample], Dict[str, Optional[float]]]:
    """Alternate untraced and traced samples of the workload itself.

    Yields ``trace.overhead_fraction`` and the medians of the program's
    *existing* spans; leaves the probe scenario and the untraced p50 in
    ``ctx``.
    """
    workload = ctx.workload
    program_spans: List[Any] = []
    untraced: List[wl.Sample] = []
    traced: List[wl.Sample] = []
    rig = wl.make_rig(workload, ctx.seed, spans=ctx.spans)
    if isinstance(workload, wl.Fleet):
        ctx.fleet_rig = rig
        ctx.cleanup.append(rig.close)
        warm = rig.warm_up()
        pairs = 12 if ctx.quick else 60
        for _ in range(pairs):
            untraced.append(rig.hop())
            traced.append(rig.hop(program_spans=program_spans))
        problems = rig.audit()
        ctx.scenario = rig.probe_scenario()
    else:
        try:
            warm = [rig.sample(0)]
            pairs = 2 if ctx.quick else 3
            for pair in range(pairs):
                untraced.append(rig.sample(1 + 2 * pair))
                traced.append(
                    rig.sample(2 + 2 * pair, program_spans=program_spans)
                )
        finally:
            rig.close()
        problems = []
        ctx.scenario = rig.scenario(0)
    samples = warm + untraced + traced
    if problems:
        samples[-1].problems.extend(problems)

    off = statistics.median(s.wall_s for s in untraced)
    on = statistics.median(s.wall_s for s in traced)
    ctx.e2e_p50_s = off
    by_name: Dict[str, List[float]] = {}
    for record in program_spans:
        if record.name == "round" and record.attrs.get("planned") is False:
            continue  # the probe for a round that does not exist
        by_name.setdefault(record.name, []).append(record.duration_s)

    def span_ms(name: str) -> Optional[float]:
        return _median_ms(by_name[name]) if by_name.get(name) else None

    metrics = {
        "trace.overhead_fraction": on / off - 1.0,
        "source.span.announce_ms": span_ms("announce"),
        "source.span.round_ms": span_ms("round"),
        "source.span.complete_ms": span_ms("complete"),
        "daemon.span.round_ms": span_ms("daemon.round"),
    }
    return samples, metrics


# --- layer probes -------------------------------------------------------------


def probe_checksum(ctx: Context) -> Dict[str, float]:
    """core.checksum: raw MD5 over 4 KiB views (§3.4 says 350 MiB/s)."""
    from repro.core import MD5

    pages = min(ctx.scenario.num_pages, 4096)
    blob = np.random.default_rng(ctx.seed).bytes(pages * PAGE)
    view = memoryview(blob)
    digest = MD5.digest
    with ctx.spans.span("checksum.md5", pages=pages) as span:
        for offset in range(0, len(blob), PAGE):
            digest(view[offset : offset + PAGE])
    return {"checksum.md5_mibps": pages * PAGE / wl.MIB / span.seconds}


def probe_synth(ctx: Context) -> Dict[str, float]:
    """mem.pagestore: cold ``page_bytes`` — the fixture's own cost."""
    from repro.mem.pagestore import PageStore

    distinct = np.unique(ctx.scenario.current.hashes)
    store = PageStore(cache_limit=2 * int(distinct.size) + 16)
    with ctx.spans.span("pagestore.synth", pages=int(distinct.size)) as span:
        wl.fill(store, distinct)
    ctx.store = store
    return {"pagestore.synth_mibps": distinct.size * PAGE / wl.MIB / span.seconds}


def probe_install(ctx: Context) -> Dict[str, float]:
    """runtime.daemon: ``install_checkpoint`` (warm pages, cold digests).

    The daemon stays up for the replay probe.
    """
    from repro.runtime import CheckpointDaemon

    scenario = ctx.scenario
    state_dir = None
    if getattr(ctx.workload, "durable", False):
        # The workload's destination persists; so does the probe's.
        base, _fs = wl.state_base()
        state_dir = tempfile.mkdtemp(prefix="vecycle-bench-probe-", dir=base)
        ctx.cleanup.append(lambda: shutil.rmtree(state_dir, ignore_errors=True))
    daemon = CheckpointDaemon(
        name="probe-dest", time_scale=0.0,
        pagestore=wl.warm_store(scenario.checkpoint.hashes),
        state_dir=state_dir,
    )
    ctx.loop.run_until_complete(daemon.start())
    ctx.cleanup.append(lambda: ctx.loop.run_until_complete(daemon.stop()))
    with ctx.spans.span("daemon.install_checkpoint") as span:
        daemon.install_checkpoint(
            scenario.vm_id, scenario.checkpoint, scenario.strategy.checksum
        )
    ctx.daemon = daemon
    ctx.announced = daemon.checkpoint_digests(scenario.vm_id)
    return {"daemon.install_checkpoint_mibps": ctx.guest_mib / span.seconds}


def _encode_send(codec, store, checksum, send) -> bytes:
    """One planned message as wire bytes, through ``FrameCodec`` only."""
    from repro.runtime import planner

    if send.kind == planner.KIND_FULL:
        return codec.encode_page_full(
            send.slot,
            store.digest_for(send.content_id, checksum),
            store.page_bytes(send.content_id),
        )
    if send.kind == planner.KIND_CHECKSUM:
        return codec.encode_page_checksum(
            send.slot, store.digest_for(send.content_id, checksum)
        )
    if send.kind == planner.KIND_REF:
        return codec.encode_page_ref(send.slot, send.ref)
    return codec.encode_page_plain(send.slot, store.page_bytes(send.content_id))


def probe_source_stages(ctx: Context) -> Dict[str, float]:
    """The source's three stages, staged by the harness as child spans.

    Digest (``PageStore.digests_for``, cold), plan
    (``plan_first_round`` + ``FirstRoundPlan.sends``) and encode
    (``FrameCodec`` per planned message) — the same calls
    ``MigrationSource.migrate`` makes, without the socket between them.
    """
    from repro.runtime import FrameCodec, plan_first_round

    scenario, store = ctx.scenario, ctx.store
    strategy = scenario.strategy
    checksum = strategy.checksum
    hashes = scenario.current.hashes
    codec = FrameCodec(strategy.wire)
    pages = scenario.num_pages
    with ctx.spans.span("source.staged"):
        with ctx.spans.span("source.digest") as digest:
            slot_digests = store.digests_for(hashes, checksum)
        with ctx.spans.span("source.plan") as plan_span:
            with ctx.spans.span("planner.plan") as planning:
                plan = plan_first_round(
                    strategy.method,
                    hashes,
                    announced=ctx.announced,
                    digest_of=lambda cid: store.digest_for(cid, checksum),
                    dirty_slots=scenario.dirty_slots,
                    digest_many=lambda ids: store.digests_for(ids, checksum),
                )
            with ctx.spans.span("planner.sends") as listing:
                sends = plan.sends()
        with ctx.spans.span("source.encode", messages=len(sends)) as encode:
            frames = [_encode_send(codec, store, checksum, s) for s in sends]
    ctx.slot_digests = slot_digests
    ctx.frames = frames
    return {
        "pagestore.digest_mibps": ctx.guest_mib / digest.seconds,
        "planner.plan_pages_per_s": pages / planning.seconds,
        "planner.sends_pages_per_s": len(sends) / listing.seconds,
        "source.digest_ms": digest.seconds * 1e3,
        "source.plan_ms": plan_span.seconds * 1e3,
        "source.encode_ms": encode.seconds * 1e3,
    }


def probe_pagestore_hot(ctx: Context) -> Dict[str, float]:
    """mem.pagestore: digest-cache hits and the content-addressed store."""
    from repro.mem.pagestore import ContentAddressedStore

    scenario, store = ctx.scenario, ctx.store
    checksum = scenario.strategy.checksum
    hashes = scenario.current.hashes
    with ctx.spans.span("pagestore.digest_hit") as hit:
        store.digests_for(hashes, checksum)
    distinct = np.unique(hashes).tolist()
    pairs = [(store.digest_for(c, checksum), store.page_bytes(c)) for c in distinct]
    cas = ContentAddressedStore()
    with ctx.spans.span("pagestore.cas_put") as put:
        for digest, page in pairs:
            cas.put(digest, page)
    with ctx.spans.span("pagestore.cas_retain_release") as refs:
        cas.retain_many(ctx.slot_digests)
        cas.release_many(ctx.slot_digests)
    return {
        "pagestore.digest_hit_ops": len(hashes) / hit.seconds,
        "pagestore.cas_put_ops": len(pairs) / put.seconds,
        "pagestore.cas_retain_release_ops": 2 * len(ctx.slot_digests) / refs.seconds,
    }


async def _decode_all(codec, blob: bytes, count: int) -> None:
    """``read_frame`` ``count`` times over an in-memory ``recv``."""
    view = memoryview(blob)
    position = 0

    async def recv(num_bytes: int) -> bytes:
        nonlocal position
        chunk = bytes(view[position : position + num_bytes])
        position += num_bytes
        return chunk

    for _ in range(count):
        await codec.read_frame(recv)


def probe_frames(ctx: Context) -> Dict[str, float]:
    """runtime.frames: encode and decode of each frame that carries pages."""
    from repro.runtime import FrameCodec

    scenario, store = ctx.scenario, ctx.store
    codec = FrameCodec(scenario.strategy.wire)
    spans, loop = ctx.spans, ctx.loop
    hashes = scenario.current.hashes.tolist()
    rows = [
        (slot, ctx.slot_digests[slot], store.page_bytes(cid))
        for slot, cid in enumerate(hashes)
    ]
    with spans.span("frames.encode_full") as encode_full:
        full = [codec.encode_page_full(s, d, p) for s, d, p in rows]
    blob = b"".join(full)
    with spans.span("frames.decode_full") as decode_full:
        loop.run_until_complete(_decode_all(codec, blob, len(full)))
    with spans.span("frames.encode_checksum") as encode_sum:
        sums = [codec.encode_page_checksum(s, d) for s, d, _ in rows]
    blob = b"".join(sums)
    with spans.span("frames.decode_checksum") as decode_sum:
        loop.run_until_complete(_decode_all(codec, blob, len(sums)))

    digests = sorted(ctx.announced)
    repeats = max(1, 400_000 // max(1, len(digests)))
    with spans.span("frames.announce_encode") as announce_encode:
        for _ in range(repeats):
            announce = codec.encode_announce(digests)
    with spans.span("frames.announce_decode") as announce_decode:
        loop.run_until_complete(_decode_all(codec, announce * repeats, repeats))
    announced = repeats * len(digests)
    mib = len(rows) * PAGE / wl.MIB
    return {
        "frames.encode_full_mibps": mib / encode_full.seconds,
        "frames.decode_full_mibps": mib / decode_full.seconds,
        "frames.encode_checksum_ops": len(rows) / encode_sum.seconds,
        "frames.decode_checksum_ops": len(rows) / decode_sum.seconds,
        "frames.announce_encode_digests_per_s": announced / announce_encode.seconds,
        "frames.announce_decode_digests_per_s": announced / announce_decode.seconds,
    }


async def _discard(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while await reader.read(1 << 16):
            pass
    finally:
        writer.close()


def probe_shaping(ctx: Context) -> Dict[str, float]:
    """runtime.shaping: unshaped ``ShapedStream`` over loopback."""
    from repro.runtime import open_shaped_connection

    chunk = bytes(64 * 1024)
    sends = 64 if ctx.quick else 512

    async def run() -> Tuple[List[float], float]:
        server = await asyncio.start_server(_discard, LOCALHOST, 0)
        port = server.sockets[0].getsockname()[1]
        try:
            connects = []
            for _ in range(30):
                with ctx.spans.span("shaping.connect") as connect:
                    stream = await open_shaped_connection(
                        LOCALHOST, port, time_scale=0.0, connect_timeout_s=5.0
                    )
                connects.append(connect.seconds)
                await stream.close()
            stream = await open_shaped_connection(
                LOCALHOST, port, time_scale=0.0, connect_timeout_s=5.0
            )
            with ctx.spans.span("shaping.loopback_send") as send:
                for _ in range(sends):
                    await stream.send(chunk)
            await stream.close()
            return connects, send.seconds
        finally:
            server.close()
            await server.wait_closed()

    connects, send_s = ctx.loop.run_until_complete(run())
    return {
        "shaping.connect_ms": _median_ms(connects),
        "shaping.loopback_send_mibps": sends * len(chunk) / wl.MIB / send_s,
    }


def probe_null_sink(ctx: Context) -> Dict[str, float]:
    """runtime.source: ``migrate`` against a sink that discards pages.

    The stub answers with READY, ANNOUNCE and RESULT frames built by
    ``FrameCodec`` and reads the page stream as raw bytes (the analytic
    model gives its length), so what is timed is the source alone plus
    the socket.
    """
    from repro.runtime import (
        FrameCodec,
        MigrationSource,
        RuntimeConfig,
        SourceState,
    )

    scenario = ctx.scenario
    strategy = scenario.strategy
    codec = FrameCodec(strategy.wire)
    announce = codec.encode_announce(sorted(ctx.announced))
    round_header = len(codec.encode_round(1, 0))
    stream_bytes = wl.expected_payload_bytes(scenario) + round_header

    async def sink(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            await codec.read_frame(reader.readexactly)  # HELLO
            writer.write(codec.encode_ready(1, 0, True, False) + announce)
            await writer.drain()
            remaining = stream_bytes
            while remaining:
                chunk = await reader.read(min(remaining, 1 << 18))
                if not chunk:
                    return
                remaining -= len(chunk)
            await codec.read_frame(reader.readexactly)  # COMPLETE
            writer.write(codec.encode_result({"ok": True}))
            await writer.drain()
        finally:
            writer.close()

    source = MigrationSource(
        SourceState(
            vm_id=scenario.vm_id,
            hashes=scenario.current.hashes,
            pagestore=wl.warm_store(scenario.current.hashes),
            dirty_slots=scenario.dirty_slots,
        ),
        strategy,
        config=RuntimeConfig(time_scale=0.0),
    )

    async def run() -> float:
        server = await asyncio.start_server(sink, LOCALHOST, 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with ctx.spans.span("source.null_sink") as span:
                await source.migrate(LOCALHOST, port)
            return span.seconds
        finally:
            server.close()
            await server.wait_closed()

    flushes_before = obsaccess.counter("runtime.batch_flushes")
    ctx.null_sink_s = ctx.loop.run_until_complete(run())
    flushes_after = obsaccess.counter("runtime.batch_flushes")
    flushes = None
    if flushes_before is not None and flushes_after is not None:
        flushes = (flushes_after - flushes_before) / ctx.guest_mib
    return {
        "source.null_sink_mibps": ctx.guest_mib / ctx.null_sink_s,
        "source.batch_flushes_per_mib": flushes,
    }


def probe_daemon_replay(ctx: Context) -> Dict[str, float]:
    """runtime.daemon: a pre-encoded HELLO…COMPLETE stream, replayed.

    Timed from the first byte written to the RESULT read back; the
    COMPLETE→RESULT part (drain, verify, adopt) is reported on its own.
    """
    from repro.runtime import FrameCodec

    scenario, daemon = ctx.scenario, ctx.daemon
    strategy = scenario.strategy
    codec = FrameCodec(strategy.wire)
    hello = codec.encode_hello({
        "session": f"{scenario.vm_id}-probe-replay",
        "vm_id": scenario.vm_id,
        "num_pages": scenario.num_pages,
        "mode": strategy.method.value,
        "page_size": codec.page_size,
        "digest_size": codec.digest_size,
        "algorithm": strategy.checksum.name,
        "announce_known": False,
    })
    body = memoryview(
        codec.encode_round(1, len(ctx.frames)) + b"".join(ctx.frames)
    )
    complete = codec.encode_complete(
        1, strategy.checksum.digest(b"".join(ctx.slot_digests))
    )

    async def run() -> Tuple[float, float]:
        reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
        try:
            with ctx.spans.span("daemon.replay") as replay:
                writer.write(hello)
                await writer.drain()
                ready = await codec.read_frame(reader.readexactly)
                if ready.announce_follows:
                    await codec.read_frame(reader.readexactly)
                for offset in range(0, len(body), 1 << 16):
                    writer.write(body[offset : offset + (1 << 16)])
                    await writer.drain()
                with ctx.spans.span("daemon.complete") as completing:
                    writer.write(complete)
                    await writer.drain()
                    result = await codec.read_frame(reader.readexactly)
        finally:
            writer.close()
            await writer.wait_closed()
        if not (result.body or {}).get("ok"):
            raise RuntimeError(f"daemon rejected the replayed image: {result.body}")
        return replay.seconds, completing.seconds

    ctx.replay_s, complete_s = ctx.loop.run_until_complete(run())
    return {
        "daemon.replay_mibps": ctx.guest_mib / ctx.replay_s,
        "daemon.complete_ms": complete_s * 1e3,
    }


def probe_repository(ctx: Context) -> Dict[str, float]:
    """storage.repository: segment writes, commit, recover, reads.

    ``os.fsync`` is wrapped here, and only here, to count barriers.
    """
    from repro.storage.repository import CheckpointManifest, CheckpointRepository

    scenario, store = ctx.scenario, ctx.store
    checksum = scenario.strategy.checksum
    distinct = np.unique(scenario.current.hashes)[:REPOSITORY_PAGE_CAP].tolist()
    pairs = [(store.digest_for(c, checksum), store.page_bytes(c)) for c in distinct]
    base, _fs = wl.state_base()
    root = Path(tempfile.mkdtemp(prefix="vecycle-bench-repo-", dir=base))
    fsyncs = 0
    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        nonlocal fsyncs
        fsyncs += 1
        real_fsync(fd)

    try:
        repo = CheckpointRepository(root)
        batched_before = obsaccess.counter("repo.fsync_batched")
        os.fsync = counting_fsync
        try:
            with ctx.spans.span("repository.put_page", pages=len(pairs)) as put:
                for digest, page in pairs:
                    repo.put_page(digest, page)
            manifest = CheckpointManifest(
                vm_id=scenario.vm_id,
                slot_digests=[digest for digest, _ in pairs],
                algorithm=checksum.name,
                page_size=PAGE,
                generation=1,
            )
            with ctx.spans.span("repository.commit") as commit:
                repo.commit_checkpoint(manifest)
        finally:
            os.fsync = real_fsync
        batched_after = obsaccess.counter("repo.fsync_batched")
        stored = repo.stored_bytes
        with ctx.spans.span("repository.recover") as recover:
            report = CheckpointRepository(root).recover()
        if report.recovered != 1:
            raise RuntimeError(f"recover() found {report.recovered} checkpoints")
        with ctx.spans.span("repository.get_page") as get:
            for digest, _ in pairs:
                repo.get_page(digest)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    batched = None
    if batched_before is not None and batched_after is not None:
        batched = batched_after - batched_before
    guest_bytes = len(pairs) * PAGE
    return {
        "repository.put_page_ops": len(pairs) / put.seconds,
        "repository.commit_ms": commit.seconds * 1e3,
        "repository.fsyncs_per_page": fsyncs / len(pairs),
        "repository.fsync_batched": batched,
        "repository.disk_bytes_per_guest_byte": stored / guest_bytes,
        "repository.recover_mibps": guest_bytes / wl.MIB / recover.seconds,
        "repository.get_page_ops": len(pairs) / get.seconds,
    }


def probe_orchestrator(ctx: Context) -> Dict[str, float]:
    """orchestrator.*: the control plane on the 3-host x 6-VM fleet.

    Uses the workload's own fleet when it has one, else builds the
    ``fleet_pingpong`` fixture at this seed.
    """
    hops = 20 if ctx.quick else 60
    rig = ctx.fleet_rig
    if rig is None:
        fleet = wl.sized(wl.WORKLOADS["fleet_pingpong"], 1.0, quick=True)
        rig = wl.FleetRig(fleet, ctx.seed)
        ctx.cleanup.append(rig.close)
        bad = [p for s in rig.warm_up() for p in s.problems]
        if bad:
            raise RuntimeError(f"fleet warm-up went wrong: {bad[0]}")
    loop, spans = rig.loop, ctx.spans
    with spans.span("orchestrator.hops", hops=hops):
        samples = [rig.hop() for _ in range(hops)]
    bad = [p for s in samples for p in s.problems]
    if bad:
        raise RuntimeError(f"fleet hop went wrong: {bad[0]}")
    walls = sorted(s.wall_s for s in samples)

    async def timed(make_call: Callable[[], Any], repeats: int) -> List[float]:
        seconds = []
        for _ in range(repeats):
            started = time.perf_counter()
            await make_call()
            seconds.append(time.perf_counter() - started)
        return seconds

    host = rig.registry.hosts()[0]
    with spans.span("registry.poll"):
        polls = loop.run_until_complete(timed(lambda: rig.registry.poll(host), 30))
    with spans.span("telemetry.poll_all"):
        telemetry = loop.run_until_complete(timed(rig.aggregator.poll_all, 20))

    vm_id, image = rig.next_vm()
    requests = []
    with spans.span("controller.request_for"):
        for _ in range(20):
            started = time.perf_counter()
            request = rig.orchestrator.request_for(
                vm_id, image, source_host=rig.locations[vm_id]
            )
            requests.append(time.perf_counter() - started)
    view = rig.registry.view()
    policy = rig.orchestrator.policy
    decisions = 500
    with spans.span("placement.decide") as deciding:
        for _ in range(decisions):
            policy.decide(request, view)
    return {
        "registry.poll_ms": _median_ms(polls),
        "controller.request_for_ms": _median_ms(requests),
        "placement.decisions_per_s": decisions / deciding.seconds,
        "telemetry.poll_all_ms": _median_ms(telemetry),
        "orchestrator.hop_p95_ms": walls[int(0.95 * len(walls))] * 1e3,
    }


PROBES: Tuple[Tuple[Callable[[Context], Dict[str, float]], Tuple[str, ...]], ...] = (
    (probe_checksum, ("checksum.md5_mibps",)),
    (probe_synth, ("pagestore.synth_mibps",)),
    (probe_install, ("daemon.install_checkpoint_mibps",)),
    (probe_source_stages, (
        "pagestore.digest_mibps", "planner.plan_pages_per_s",
        "planner.sends_pages_per_s", "source.digest_ms", "source.plan_ms",
        "source.encode_ms",
    )),
    (probe_pagestore_hot, (
        "pagestore.digest_hit_ops", "pagestore.cas_put_ops",
        "pagestore.cas_retain_release_ops",
    )),
    (probe_frames, (
        "frames.encode_full_mibps", "frames.decode_full_mibps",
        "frames.encode_checksum_ops", "frames.decode_checksum_ops",
        "frames.announce_encode_digests_per_s",
        "frames.announce_decode_digests_per_s",
    )),
    (probe_shaping, ("shaping.loopback_send_mibps", "shaping.connect_ms")),
    (probe_null_sink, ("source.null_sink_mibps", "source.batch_flushes_per_mib")),
    (probe_daemon_replay, ("daemon.replay_mibps", "daemon.complete_ms")),
    (probe_repository, (
        "repository.put_page_ops", "repository.commit_ms",
        "repository.fsyncs_per_page", "repository.fsync_batched",
        "repository.disk_bytes_per_guest_byte", "repository.recover_mibps",
        "repository.get_page_ops",
    )),
    (probe_orchestrator, (
        "registry.poll_ms", "controller.request_for_ms",
        "placement.decisions_per_s", "telemetry.poll_all_ms",
        "orchestrator.hop_p95_ms",
    )),
)


def run_probe(ctx, probe, names, metrics, notes) -> None:
    """Run one probe; on any failure its metrics read null with a note."""
    note = "probe returned no value"
    try:
        values = probe(ctx)
    except Exception as exc:  # noqa: BLE001 - a broken layer must not stop the run
        values = {}
        note = f"{type(exc).__name__}: {exc}"
    for name in names:
        metrics[name] = values.get(name)
        if metrics[name] is None:
            notes[name] = note


# --- the traced run -----------------------------------------------------------


def run_traced(
    workload: wl.Workload, seed: int, quick: bool, trace_path: Path
) -> Dict[str, Any]:
    """End-to-end pass, then every probe; writes ``trace_path``."""
    spans = SpanRecorder(workload.name)
    loop = asyncio.new_event_loop()
    ctx = Context(workload=workload, seed=seed, quick=quick, spans=spans, loop=loop)
    metrics: Dict[str, Optional[float]] = {}
    notes: Dict[str, str] = {}
    evictions_before = obsaccess.counter("pagestore.page_evictions")
    try:
        with spans.span("e2e"):
            samples, e2e_metrics = end_to_end_pass(ctx)
        metrics.update(e2e_metrics)
        for name, value in e2e_metrics.items():
            if value is None:
                notes[name] = "the program recorded no such span"
        for probe, names in PROBES:
            with spans.span(f"probe.{probe.__name__[len('probe_'):]}"):
                run_probe(ctx, probe, names, metrics, notes)
    finally:
        for undo in reversed(ctx.cleanup):
            undo()
        loop.close()

    if ctx.null_sink_s is not None and ctx.replay_s is not None:
        metrics["trace.layer_sum_over_wall"] = (
            ctx.null_sink_s + ctx.replay_s
        ) / ctx.e2e_p50_s
    else:
        metrics["trace.layer_sum_over_wall"] = None
        notes["trace.layer_sum_over_wall"] = "a probe it sums did not run"
    evictions_after = obsaccess.counter("pagestore.page_evictions")
    if evictions_before is None or evictions_after is None:
        metrics["pagestore.page_evictions"] = None
        notes["pagestore.page_evictions"] = "registry counter unreadable"
    else:
        metrics["pagestore.page_evictions"] = evictions_after - evictions_before

    wrong = [s for s in samples if s.problems]
    spans.write(trace_path, seed=seed, metrics=metrics, notes=notes)
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": len(samples),
        "failed": len(wrong),
        "detail": {
            "samples": len(samples),
            "trace_file": str(trace_path),
            "problems": [p for s in wrong for p in s.problems][:10],
        },
    }
