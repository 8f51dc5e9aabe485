"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    vecycle table1
    vecycle fig1 [--epochs N] [--plot]
    vecycle fig2 [--plot]
    vecycle fig4
    vecycle fig5 [--pairs N] [--plot]
    vecycle fig6 [--sizes 1024,2048] [--quick]
    vecycle fig7
    vecycle fig8
    vecycle rates
    vecycle summary [--full]
    vecycle migrate --size-mib 1024 --strategy vecycle --link wan-cloudnet
    vecycle runtime --size-mib 16 --strategy all [--inject-disconnect N]
    vecycle postcopy --size-mib 1024 --link wan-cloudnet
    vecycle orchestrate [--hosts 3] [--migrations 6] [--policy best-checkpoint]
    vecycle orchestrate --metrics-port 9100 --metrics-linger 30
    vecycle chaos [--seed 0 | --seeds 1,2,3] [--migrations 8] [--json]
    vecycle top --url http://127.0.0.1:9100 [--interval 2]
    vecycle top --connect 127.0.0.1:5001,127.0.0.1:5002
    vecycle consolidate [--vms 8] [--days 3]
    vecycle gang [--vms 8] [--shared 0.5]
    vecycle obs RUN.jsonl [OUT]
    vecycle repo {ls,verify,gc} --state-dir DIR
    vecycle lint [--format json] [--rules ...]   (options: repro.lint.cli)

Every subcommand but ``obs`` and ``lint`` also accepts the shared
observability flags: ``--trace-out PATH`` (write a trace of the run,
even when the command raises; a ``.jsonl`` name gets the event log, any
other Chrome trace_event JSON), ``--trace-summary`` (print the span tree
to stderr afterwards), and ``-v``/``-q`` (log verbosity).  ``obs``
reads a recorded trace: it prints the span tree and, given ``OUT``,
rewrites the trace in the format ``OUT``'s name picks.  ``runtime``
and ``orchestrate`` exit non-zero, their report on stderr, when a
cross-validation disagrees with the model.

(also reachable as ``python -m repro ...``)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core.checkpoint import Checkpoint
from repro.core.strategies import available_strategies, get_strategy
from repro.experiments import (
    fig1_similarity,
    fig3_taxonomy,
    fig2_week,
    fig4_duplicates,
    fig5_methods,
    fig6_best_case,
    fig7_updates,
    fig8_vdi,
    rates,
    summary,
    table1,
)
from repro.mem.mutation import boot_populate
from repro.migration.precopy import simulate_migration
from repro.migration.vm import SimVM
from repro.net.link import PRESETS as LINK_PRESETS, get_link
from repro.orchestrator import available_policies
from repro.obs import (
    configure_logging,
    enable as enable_tracing,
    export_trace,
    get_tracer,
    install_flight_recorder,
    read_jsonl,
    summary_tree,
)
from repro.parallel import ENV_WORKERS

MIB = 2**20


def _cmd_table1(_args: argparse.Namespace) -> str:
    return table1.format_table(table1.run())


def _cmd_fig1(args: argparse.Namespace) -> str:
    results = fig1_similarity.run(num_epochs=args.epochs, workers=args.workers)
    output = fig1_similarity.format_table(results)
    if getattr(args, "plot", False):
        from repro.analysis.asciiplot import line_plot

        charts = []
        for name, decay in results.items():
            charts.append(f"\n{name}:")
            charts.append(
                line_plot(
                    decay.bin_hours,
                    {
                        "min": decay.minimum,
                        "avg": decay.average,
                        "max": decay.maximum,
                    },
                    x_label="hours between snapshots",
                    y_range=(0.0, 1.0),
                )
            )
        output += "\n" + "\n".join(charts)
    return output


def _cmd_fig2(args: argparse.Namespace) -> str:
    decay = fig2_week.run(num_epochs=args.epochs, workers=args.workers)
    output = fig2_week.format_table(decay)
    if getattr(args, "plot", False):
        from repro.analysis.asciiplot import line_plot

        output += "\n" + line_plot(
            decay.bin_hours,
            {"min": decay.minimum, "avg": decay.average, "max": decay.maximum},
            x_label="hours between snapshots",
            y_range=(0.0, 1.0),
        )
    return output


def _cmd_fig3(_args: argparse.Namespace) -> str:
    return fig3_taxonomy.format_table(fig3_taxonomy.run())


def _cmd_fig4(args: argparse.Namespace) -> str:
    return fig4_duplicates.format_table(fig4_duplicates.run(num_epochs=args.epochs))


def _cmd_fig5(args: argparse.Namespace) -> str:
    result = fig5_methods.run(
        num_epochs=args.epochs, max_pairs=args.pairs, workers=args.workers
    )
    output = fig5_methods.format_table(result)
    if getattr(args, "plot", False):
        from repro.analysis.asciiplot import bar_chart, cdf_plot

        bars = {m.value: v for m, v in result.bar_fractions("Server A").items()}
        output += "\n\nServer A, fraction of baseline traffic:\n"
        output += bar_chart(bars)
        output += "\n\nServer B, reduction of hashes+dedup over dirty+dedup:\n"
        output += cdf_plot(result.reduction_cdf("Server B"), x_label="reduction [%]")
    return output


def _cmd_postcopy(args: argparse.Namespace) -> str:
    from repro.core.checkpoint import Checkpoint
    from repro.migration.postcopy import simulate_postcopy

    link = get_link(args.link)
    lines = []
    for strategy_name in ("qemu", "vecycle"):
        strategy = get_strategy(strategy_name)
        vm = SimVM(
            "cli-vm", args.size_mib * MIB,
            dirty_rate_pages_per_s=args.dirty_rate, seed=args.seed,
        )
        boot_populate(
            vm.image, np.random.default_rng(args.seed),
            used_fraction=0.95, duplicate_fraction=0.08, zero_fraction=0.03,
        )
        checkpoint = None
        if strategy.reuses_checkpoint:
            checkpoint = Checkpoint(vm_id=vm.vm_id, fingerprint=vm.fingerprint())
            vm.run_for(1800)
        lines.append(
            simulate_postcopy(vm, strategy, link, checkpoint=checkpoint).summary()
        )
    return "\n".join(lines)


def _cmd_orchestrate(args: argparse.Namespace) -> str:
    """Live cluster control plane demo over localhost daemons."""
    from pathlib import Path

    from repro.experiments import live_cluster

    result = live_cluster.run(
        hosts=args.hosts,
        migrations=args.migrations,
        policy=args.policy,
        strategy=get_strategy(args.strategy),
        vdi=args.vdi_crossval,
        days=args.days,
        interval_hours=args.interval_hours,
        num_epochs=args.epochs,
        state_root=Path(args.state_dir) if args.state_dir else None,
        seed=args.seed,
        metrics_port=args.metrics_port,
        metrics_linger_s=args.metrics_linger,
    )
    table = live_cluster.format_table(result)
    if not result.within():
        raise SystemExit(table)
    return table


def _cmd_chaos(args: argparse.Namespace) -> str:
    """Deterministic chaos soak over live localhost daemons."""
    import json
    from pathlib import Path

    from repro.chaos import FaultSchedule, run_soak
    from repro.experiments import chaos_soak

    if args.seeds:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    else:
        seeds = [args.seed]
    schedule = None
    if args.schedule_json:
        schedule = FaultSchedule.from_json(Path(args.schedule_json).read_text("utf-8"))
    reports = [
        run_soak(
            seed=seed,
            migrations=args.migrations,
            hosts=args.hosts,
            num_pages=args.pages,
            vdi=args.vdi,
            days=args.days,
            intensity=args.intensity,
            policy=args.policy,
            state_root=Path(args.state_dir) if args.state_dir else None,
            schedule=schedule,
        )
        for seed in seeds
    ]
    if args.as_json:
        return json.dumps([report.to_dict() for report in reports], indent=1)
    output = chaos_soak.format_table(reports)
    if any(not report.ok for report in reports):
        print(output, file=sys.stderr)
        raise SystemExit(1)
    return output


def _cmd_top(args: argparse.Namespace) -> str:
    """Terminal dashboard over a /metrics.json endpoint or raw daemons."""
    import asyncio
    import time

    from repro.obs.top import CLEAR, fetch_view, render_dashboard

    if bool(args.url) == bool(args.connect):
        raise SystemExit("vecycle top: pass exactly one of --url / --connect")

    if args.connect:
        from repro.orchestrator import ClusterRegistry, TelemetryAggregator

        registry = ClusterRegistry(controller_id="vecycle-top")
        for address in args.connect.split(","):
            address = address.strip()
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit():
                raise SystemExit(
                    f"vecycle top: bad --connect address {address!r} "
                    "(want host:port)"
                )
            registry.register(address, host, int(port))
        aggregator = TelemetryAggregator(registry)

        async def poll():
            # Each refresh runs on a loop of its own, which the
            # registry's control channels must not outlive.
            try:
                await aggregator.poll_all()
            finally:
                await registry.close()

        def view():
            asyncio.run(poll())
            return aggregator.dashboard_view()
    else:

        def view():
            return fetch_view(args.url)

    iteration = 0
    frame = ""
    while True:
        frame = render_dashboard(view())
        iteration += 1
        if args.iterations and iteration >= args.iterations:
            break
        # Live mode: clear, draw, sleep, repeat; the final frame is
        # returned so main() prints it like any other subcommand.
        print(CLEAR + frame, flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            break
    return frame


def _cmd_consolidate(args: argparse.Namespace) -> str:
    from repro.cluster.policies import ThresholdConsolidation
    from repro.cluster.simulator import DatacenterSimulator, build_fleet
    from repro.storage.disk import SSD_INTEL330

    lines = []
    for strategy_name in ("qemu", "dedup", "miyakodori+dedup", "vecycle+dedup"):
        fleet, hosts = build_fleet(
            args.vms, 64 * MIB, num_home_hosts=max(1, args.vms // 2),
            seed=args.seed,
        )
        simulator = DatacenterSimulator(
            fleet, hosts, ThresholdConsolidation(),
            get_strategy(strategy_name), get_link(args.link), seed=args.seed,
            disk=SSD_INTEL330,
        )
        lines.append(simulator.run(args.days * 48).summary())
    return "\n".join(lines)


def _cmd_gang(args: argparse.Namespace) -> str:
    from repro.core.checkpoint import Checkpoint
    from repro.core.gang import GangMember, gang_transfer_set, shared_base_image_fleet

    rng = np.random.default_rng(args.seed)
    old_states = shared_base_image_fleet(
        args.vms, 16384, shared_fraction=args.shared, rng=rng
    )
    # The fleet kept running since the checkpoints were taken: 40% of
    # each VM's pages changed — half to *common* new content (a base
    # image update rolled out everywhere), half to private fresh data.
    from repro.core.fingerprint import Fingerprint

    update_pool = rng.integers(2**59, 2**60, size=4096, dtype=np.uint64)
    current_states = []
    for old in old_states:
        hashes = old.hashes.copy()
        changed = rng.choice(len(hashes), size=int(0.4 * len(hashes)), replace=False)
        half = len(changed) // 2
        hashes[changed[:half]] = rng.choice(update_pool, size=half)
        hashes[changed[half:]] = rng.integers(
            2**60, 2**61, size=len(changed) - half, dtype=np.uint64
        )
        current_states.append(Fingerprint(hashes=hashes))
    members = [
        GangMember(vm_id=f"vm{i}", fingerprint=fingerprint)
        for i, fingerprint in enumerate(current_states)
    ]
    with_checkpoints = [
        GangMember(
            vm_id=m.vm_id,
            fingerprint=m.fingerprint,
            checkpoint=Checkpoint(vm_id=m.vm_id, fingerprint=old),
        )
        for m, old in zip(members, old_states)
    ]
    lines = [f"gang of {args.vms} VMs, {args.shared:.0%} shared base image:"]
    for label, gang, kwargs in (
        ("per-VM dedup only", members, dict(cross_vm_dedup=False)),
        ("cross-VM dedup", members, dict(cross_vm_dedup=True)),
        ("cross-VM dedup + checkpoints", with_checkpoints, dict(cross_vm_dedup=True)),
        (
            "merged checkpoints (cross-VM recycle)",
            with_checkpoints,
            dict(cross_vm_dedup=True, cross_vm_checkpoints=True),
        ),
    ):
        result = gang_transfer_set(gang, **kwargs)
        lines.append(
            f"  {label:<36s} full={result.full_pages:6d} "
            f"refs={result.ref_pages:6d} reused={result.reused_pages:6d} "
            f"({result.page_fraction * 100:5.1f}% of baseline)"
        )
    return "\n".join(lines)


def _cmd_fig6(args: argparse.Namespace) -> str:
    sizes = (
        tuple(int(s) for s in args.sizes.split(","))
        if args.sizes
        else ((1024, 2048) if args.quick else fig6_best_case.PAPER_SIZES_MIB)
    )
    return fig6_best_case.format_table(fig6_best_case.run(sizes_mib=sizes))


def _cmd_fig7(args: argparse.Namespace) -> str:
    memory = 1024 if args.quick else 4096
    return fig7_updates.format_table(
        fig7_updates.run(memory_mib=memory, workers=args.workers)
    )


def _cmd_fig8(args: argparse.Namespace) -> str:
    return fig8_vdi.format_table(
        fig8_vdi.run(num_epochs=args.epochs, workers=args.workers)
    )


def _cmd_summary(args: argparse.Namespace) -> str:
    return summary.format_table(summary.run(quick=not args.full))


def _cmd_rates(_args: argparse.Namespace) -> str:
    return rates.format_table(rates.run())


def _cmd_migrate(args: argparse.Namespace) -> str:
    strategy = get_strategy(args.strategy)
    link = get_link(args.link)
    vm = SimVM.idle("cli-vm", args.size_mib * MIB, seed=args.seed)
    boot_populate(
        vm.image,
        np.random.default_rng(args.seed),
        used_fraction=0.95,
        duplicate_fraction=0.08,
        zero_fraction=0.03,
    )
    checkpoint = None
    if strategy.reuses_checkpoint:
        checkpoint = Checkpoint(vm_id=vm.vm_id, fingerprint=vm.fingerprint())
        if args.updates_percent:
            slots = vm.image.sample_slots(
                int(vm.num_pages * args.updates_percent / 100),
                np.random.default_rng(args.seed + 1),
            )
            vm.write_slots(slots)
    report = simulate_migration(vm, strategy, link, checkpoint=checkpoint)
    lines = [report.summary()]
    lines.append(
        f"pages: full={report.pages_full} ref={report.pages_ref} "
        f"checksum-only={report.pages_checksum_only} skipped={report.pages_skipped}"
    )
    if strategy.reuses_checkpoint:
        lines.append(
            f"similarity to checkpoint: {report.similarity:.3f}; reused "
            f"{report.pages_reused_in_place} in place, "
            f"{report.pages_reused_from_disk} from disk"
        )
    return "\n".join(lines)


def _cmd_runtime(args: argparse.Namespace) -> str:
    """Live localhost migration(s) through the asyncio runtime."""
    import asyncio

    from repro.runtime import cross_validate, idle_vm_scenario
    from repro.runtime.faults import FaultInjector
    from repro.runtime.source import RetryPolicy, RuntimeConfig

    strategy_names = (
        available_strategies() if args.strategy == "all" else [args.strategy]
    )
    link = None if args.link == "none" else get_link(args.link)
    config = RuntimeConfig(
        time_scale=args.time_scale,
        retry=RetryPolicy(max_attempts=5, base_backoff_s=0.02),
    )

    async def run_all() -> str:
        sections = []
        agree = True
        for name in strategy_names:
            scenario = idle_vm_scenario(
                size_mib=args.size_mib,
                updates_percent=args.updates_percent,
                strategy=get_strategy(name),
                link=link,
                seed=args.seed,
            )
            result = await cross_validate(
                scenario, config=config, state_dir=args.state_dir
            )
            if args.inject_disconnect:
                # Re-run with a mid-transfer disconnect so the retry path
                # shows up in the metrics (daemon aborts, source resumes)
                # and is held to the same analytic account.
                resumed = await cross_validate(
                    scenario, config=config, state_dir=args.state_dir,
                    faults=FaultInjector(
                        after_messages=args.inject_disconnect, times=1
                    ),
                )
                sections.append(resumed.runtime.report())
                sections.append(resumed.report())
                agree = agree and resumed.within()
            sections.append(result.runtime.report())
            sections.append(result.report())
            agree = agree and result.within()
        if not agree:
            # A byte disagreement with the model fails the command.
            raise SystemExit("\n\n".join(sections))
        return "\n\n".join(sections)

    return asyncio.run(run_all())


def _cmd_repo(args: argparse.Namespace) -> str:
    """Inspect, scrub, or garbage-collect a durable checkpoint repository."""
    from repro.storage.repository import CheckpointRepository

    repo = CheckpointRepository(args.state_dir)
    if args.action == "ls":
        report = repo.recover(verify_digests=False)
        lines = [
            f"{len(report.checkpoints)} checkpoint(s) in {args.state_dir}"
        ]
        for manifest in report.checkpoints:
            lines.append(
                f"  {manifest.vm_id:<24s} pages={manifest.num_pages:>8d} "
                f"unique={len(manifest.unique_digests):>8d} "
                f"algo={manifest.algorithm} ts={manifest.timestamp:.0f}"
            )
        packs = repo.pack_stats()
        lines.append(
            f"{packs['packs']} pack(s): live={packs['live_bytes']} "
            f"dead={packs['dead_bytes']} physical={packs['physical_bytes']} bytes"
        )
        if report.sessions:
            lines.append(f"{len(report.sessions)} persisted session result(s)")
        if report.quarantined:
            lines.append(f"{len(report.quarantined)} entr(ies) quarantined")
        if report.orphan_segments:
            lines.append(
                f"{report.orphan_segments} unreferenced record(s) — run "
                "'vecycle repo gc' on a stopped daemon's directory to "
                "reclaim them"
            )
        return "\n".join(lines)
    if args.action == "verify":
        repo.recover(verify_digests=False)
        report = repo.verify()
        lines = [f"checked {report.segments_checked} record(s)"]
        if report.ok:
            lines.append("all record digests verify: repository is clean")
        else:
            lines.append(
                f"quarantined {len(report.corrupt_segments)} corrupt "
                f"record(s) and {len(report.quarantined_manifests)} "
                "manifest(s) referencing them"
            )
        return "\n".join(lines)
    # args.action == "gc"
    repo.recover(verify_digests=False)
    freed = repo.gc()
    return f"released {freed} bytes of unreferenced records and compacted the packs"


def _cmd_obs(args: argparse.Namespace) -> str:
    """Summarize a recorded JSONL trace, and convert it if asked."""
    records, metrics = read_jsonl(args.run)
    lines = [f"loaded {len(records)} spans from {args.run}"]
    if args.out:
        export_trace(args.out, records=records, metrics=metrics)
        lines.append(f"wrote {args.out}")
    lines.append(summary_tree(records))
    return "\n".join(lines)


def _obs_options() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    perf = common.add_argument_group("parallelism")
    perf.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for sweeps that support sharding "
        "(fig1/fig2/fig5/fig7/fig8); 0 = all cores; default is the "
        f"{ENV_WORKERS} environment variable, else serial",
    )
    group = common.add_argument_group("observability")
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="record a trace of this run and write it to PATH: a JSONL "
        "event log if PATH ends in .jsonl, else Chrome trace_event JSON "
        "(chrome://tracing, Perfetto)",
    )
    group.add_argument(
        "--trace-summary", action="store_true",
        help="print the aggregated span tree to stderr after the command",
    )
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    group.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="decrease log verbosity (errors only)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``vecycle`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="vecycle",
        description="VeCycle reproduction: regenerate the paper's tables and figures.",
    )
    common = _obs_options()
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)

    add_parser("table1", help="Table 1: traced systems").set_defaults(
        func=_cmd_table1
    )
    add_parser(
        "fig3", help="method taxonomy as a worked example"
    ).set_defaults(func=_cmd_fig3)
    for name, func, help_text, plottable in (
        ("fig1", _cmd_fig1, "similarity decay, 6 machines, <=24h", True),
        ("fig2", _cmd_fig2, "Server C similarity over the full week", True),
        ("fig4", _cmd_fig4, "duplicate/zero page percentages", False),
        ("fig8", _cmd_fig8, "VDI consolidation replay", False),
    ):
        p = add_parser(name, help=help_text)
        p.add_argument("--epochs", type=int, default=None,
                       help="trace length override (30-min epochs)")
        if plottable:
            p.add_argument("--plot", action="store_true",
                           help="render ASCII charts as well")
        p.set_defaults(func=func)

    p5 = add_parser("fig5", help="traffic-reduction method comparison")
    p5.add_argument("--epochs", type=int, default=None)
    p5.add_argument("--pairs", type=int, default=500,
                    help="fingerprint pairs sampled per machine (0 = all)")
    p5.add_argument("--plot", action="store_true",
                    help="render ASCII charts as well")
    p5.set_defaults(func=_cmd_fig5)

    p6 = add_parser("fig6", help="best-case idle-VM migrations")
    p6.add_argument("--sizes", default=None, help="comma-separated MiB sizes")
    p6.add_argument("--quick", action="store_true", help="small sizes only")
    p6.set_defaults(func=_cmd_fig6)

    p7 = add_parser("fig7", help="controlled update-rate sweep")
    p7.add_argument("--quick", action="store_true", help="1 GiB VM instead of 4 GiB")
    p7.set_defaults(func=_cmd_fig7)

    add_parser("rates", help="checksum rate vs wire rate (§3.4)").set_defaults(
        func=_cmd_rates
    )

    ps = add_parser("summary", help="one-page reproduction digest")
    ps.add_argument("--full", action="store_true",
                    help="full-scale traces and VM sizes (slower)")
    ps.set_defaults(func=_cmd_summary)

    pm = add_parser("migrate", help="simulate one migration")
    pm.add_argument("--size-mib", type=int, default=1024)
    pm.add_argument("--strategy", choices=available_strategies(), default="vecycle")
    pm.add_argument("--link", choices=sorted(LINK_PRESETS), default="lan-1gbe")
    pm.add_argument("--updates-percent", type=float, default=0.0,
                    help="memory updated since the checkpoint")
    pm.add_argument("--seed", type=int, default=0)
    pm.set_defaults(func=_cmd_migrate)

    pr = add_parser(
        "runtime",
        help="live localhost migration over the asyncio runtime, "
        "cross-validated against the analytic model",
    )
    pr.add_argument("--size-mib", type=int, default=16)
    pr.add_argument(
        "--strategy", choices=available_strategies() + ["all"], default="vecycle"
    )
    pr.add_argument(
        "--link", choices=sorted(LINK_PRESETS) + ["none"], default="loopback",
        help="link model to shape traffic with ('none' disables shaping)",
    )
    pr.add_argument("--updates-percent", type=float, default=1.0,
                    help="memory updated since the destination's checkpoint")
    pr.add_argument("--time-scale", type=float, default=0.0,
                    help="scale modelled delays into real sleeps (0 = no sleeping)")
    pr.add_argument("--inject-disconnect", type=int, default=0, metavar="N",
                    help="also run a migration that loses the connection "
                    "after N applied messages (exercises retry/resume)")
    pr.add_argument("--state-dir", default=None, metavar="DIR",
                    help="durable state directory for the destination "
                    "daemon; checkpoints committed there survive restarts "
                    "(inspect with 'vecycle repo ls')")
    pr.add_argument("--seed", type=int, default=7)
    pr.set_defaults(func=_cmd_runtime)

    pp = add_parser("postcopy", help="post-copy migration comparison")
    pp.add_argument("--size-mib", type=int, default=1024)
    pp.add_argument("--link", choices=sorted(LINK_PRESETS), default="wan-cloudnet")
    pp.add_argument("--dirty-rate", type=float, default=200.0,
                    help="guest page writes per second")
    pp.add_argument("--seed", type=int, default=0)
    pp.set_defaults(func=_cmd_postcopy)

    porc = add_parser(
        "orchestrate",
        help="live cluster demo: daemons + control plane with "
        "checkpoint-aware placement, cross-validated against the "
        "analytic model",
    )
    porc.add_argument("--hosts", type=int, default=3,
                      help="daemons to boot (ping-pong pair + decoys)")
    porc.add_argument("--migrations", type=int, default=6,
                      help="ping-pong migrations to orchestrate")
    porc.add_argument(
        "--policy", default="best-checkpoint",
        choices=available_policies(),
        help="placement policy steering each migration",
    )
    porc.add_argument(
        "--strategy", choices=available_strategies(), default="vecycle+dedup"
    )
    porc.add_argument("--interval-hours", type=float, default=4.0,
                      help="hours between ping-pong migrations")
    porc.add_argument("--vdi-crossval", action="store_true",
                      help="replay the Figure-8 VDI weekday schedule "
                      "instead of the ping-pong")
    porc.add_argument("--days", type=int, default=1,
                      help="trace days (and VDI schedule length)")
    porc.add_argument("--epochs", type=int, default=None,
                      help="trace length override (30-min epochs)")
    porc.add_argument("--state-dir", default=None, metavar="DIR",
                      help="root directory for per-daemon durable state "
                      "(one subdirectory per host)")
    porc.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                      help="serve the controller's merged Prometheus "
                      "/metrics (+ /metrics.json for 'vecycle top') on "
                      "this port (0 = ephemeral)")
    porc.add_argument("--metrics-linger", type=float, default=0.0,
                      metavar="SECONDS",
                      help="keep the metrics endpoint up this long after "
                      "the last migration (for external scrapers)")
    porc.add_argument("--seed", type=int, default=99)
    porc.set_defaults(func=_cmd_orchestrate)

    pchaos = add_parser(
        "chaos",
        help="deterministic chaos soak: replay a live migration "
        "schedule under a seeded fault schedule and assert cluster "
        "invariants after every round",
    )
    pchaos.add_argument("--seed", type=int, default=0,
                        help="fault-schedule seed (one soak)")
    pchaos.add_argument("--seeds", default=None, metavar="N,N,..",
                        help="comma-separated seed sweep (overrides --seed)")
    pchaos.add_argument("--migrations", type=int, default=8,
                        help="ping-pong rounds per seed")
    pchaos.add_argument("--hosts", type=int, default=3,
                        help="daemons to boot")
    pchaos.add_argument("--pages", type=int, default=128,
                        help="VM image size in pages")
    pchaos.add_argument("--intensity", type=float, default=0.8,
                        help="fraction of rounds that get a fault")
    pchaos.add_argument("--vdi", action="store_true",
                        help="replay the Figure-8 VDI weekday schedule "
                        "instead of the ping-pong")
    pchaos.add_argument("--days", type=int, default=3,
                        help="VDI schedule length in trace days")
    pchaos.add_argument(
        "--policy", default="best-checkpoint",
        choices=available_policies(),
        help="placement policy steering each migration",
    )
    pchaos.add_argument("--state-dir", default=None, metavar="DIR",
                        help="root directory for per-daemon durable state "
                        "(temp dir, cleaned up, when omitted)")
    pchaos.add_argument("--schedule-json", default=None, metavar="FILE",
                        help="replay a committed FaultSchedule JSON file "
                        "instead of generating one from the seed")
    pchaos.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable reports instead "
                        "of the table")
    pchaos.set_defaults(func=_cmd_chaos)

    ptop = add_parser(
        "top",
        help="terminal dashboard: per-host recycle ratio, bytes saved "
        "vs transferred, active migrations, downtime percentiles",
    )
    ptop.add_argument("--url", default=None, metavar="URL",
                      help="a controller's --metrics-port endpoint to "
                      "watch (e.g. http://127.0.0.1:9100)")
    ptop.add_argument("--connect", default=None, metavar="HOST:PORT[,..]",
                      help="poll daemons directly over TELEMETRY frames "
                      "instead of scraping a controller")
    ptop.add_argument("--interval", type=float, default=2.0,
                      help="seconds between refreshes")
    ptop.add_argument("--iterations", type=int, default=0, metavar="N",
                      help="stop after N frames (0 = until interrupted; "
                      "use 1 for a single scriptable snapshot)")
    ptop.set_defaults(func=_cmd_top)

    pc = add_parser("consolidate", help="fleet consolidation simulation")
    pc.add_argument("--vms", type=int, default=8)
    pc.add_argument("--days", type=int, default=3)
    pc.add_argument("--link", choices=sorted(LINK_PRESETS), default="lan-1gbe")
    pc.add_argument("--seed", type=int, default=21)
    pc.set_defaults(func=_cmd_consolidate)

    pg = add_parser("gang", help="gang migration with cross-VM redundancy")
    pg.add_argument("--vms", type=int, default=8)
    pg.add_argument("--shared", type=float, default=0.5,
                    help="fraction of each VM that is shared base image")
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=_cmd_gang)

    prepo = add_parser(
        "repo",
        help="inspect, scrub, or gc a durable checkpoint repository",
    )
    prepo.add_argument(
        "action", choices=("ls", "verify", "gc"),
        help="ls: list committed checkpoints and pack state; verify: "
        "re-hash every record and quarantine corruption; gc: forget "
        "records no checkpoint references and compact the packs (run "
        "it on a stopped daemon's directory)",
    )
    prepo.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="repository root (the daemon's --state-dir)",
    )
    prepo.set_defaults(func=_cmd_repo)

    # `vecycle obs` reads a trace and records none, so it takes no
    # shared flags.
    po = sub.add_parser(
        "obs", help="summarize a recorded JSONL trace, or convert it"
    )
    po.add_argument("run", metavar="RUN.jsonl",
                    help="a JSONL trace (--trace-out or REPRO_TRACE)")
    po.add_argument("out", metavar="OUT", nargs="?", default=None,
                    help="also write the trace here, in the format its "
                    "name picks (.jsonl or Chrome JSON)")
    po.set_defaults(func=_cmd_obs)

    # `vecycle lint` has one parser, repro.lint.cli's: nothing is declared
    # here, so main() finds every argument after the subcommand left over
    # and hands the lot on (--help included).
    sub.add_parser(
        "lint",
        help="project-aware static analysis (async safety, determinism)",
        add_help=False,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``vecycle`` console script."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.lint.cli import run as lint_run

        # The report is printed by the runner; its exit status (0 clean,
        # 1 findings, 2 usage) is the command's whole contract.
        return lint_run(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if getattr(args, "pairs", None) == 0:
        args.pairs = None
    configure_logging(
        getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    )
    # Crash forensics for every subcommand: unhandled exceptions and
    # SIGUSR2 dump the flight-recorder rings (see docs/observability.md).
    install_flight_recorder()
    trace_out = getattr(args, "trace_out", None)
    trace_summary = getattr(args, "trace_summary", False)
    if trace_out or trace_summary:
        enable_tracing()
    try:
        print(args.func(args))
    finally:
        # Written on the way out of a failing command too: the trace of
        # a crash is the one most worth having.
        if trace_out:
            export_trace(trace_out)
        if trace_summary:
            print(summary_tree(get_tracer().finished()), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
