#!/usr/bin/env python3
"""Listing 1 on real bytes: a durable daemon recycles a checkpoint.

A guest's memory is a row of page contents, each expanded into a real
4 KiB page.  The destination host runs a checkpoint daemon with a state
directory, which holds the checkpoint written when the guest last left
it: page records in append-only packs plus a slot → checksum manifest.
Every scenario restarts the daemon over that directory and migrates the
guest in with VeCycle — the daemon announces its checkpoint's checksums,
the source sends in full only the pages whose checksum it did not
announce, and the daemon resolves the rest where the page already is or,
for content that moved, from the packs.  The daemon then hosts what
arrived as the guest's next checkpoint, and the example reads that image
back page by page and checks it against the source's bytes, exiting
non-zero on any difference.

Run:  PYTHONPATH=src python examples/byte_level_protocol.py
"""

import asyncio
import tempfile

import numpy as np

from repro.core.strategies import VECYCLE
from repro.mem.image import MemoryImage
from repro.mem.pagestore import PageStore
from repro.runtime import CheckpointDaemon, MigrationSource, RuntimeConfig, SourceState

NUM_PAGES = 512  # 2 MiB guest — small enough to hash byte-for-byte


async def migrate(
    state_dir: str, pages: PageStore, title: str, vm_id: str, guest: MemoryImage
) -> None:
    """Restart the daemon over ``state_dir``, migrate ``guest`` into it
    and check the image it hosts afterwards, byte for byte."""
    hashes = guest.fingerprint().hashes
    async with CheckpointDaemon(name="host-b", state_dir=state_dir) as daemon:
        source = MigrationSource(
            SourceState(vm_id, hashes, pages), VECYCLE,
            config=RuntimeConfig(time_scale=0.0),
        )
        metrics = await source.migrate(daemon.host, daemon.port)
        hosted = b"".join(
            daemon.store.get(digest)
            for digest in daemon.checkpoints[vm_id].slot_digests
        )
    identical = hosted == pages.materialize(hashes)
    print(f"\n--- {title} ---")
    print(f"pages sent in full:        {metrics.pages_full}")
    print(f"pages as checksum only:    {metrics.pages_checksum_only}")
    print(f"  reused in place:         {metrics.sink_stats['reused_in_place']}")
    print(f"  reused from the packs:   {metrics.sink_stats['reused_from_store']}")
    print(f"bytes on the wire:         {metrics.total_bytes:,}")
    print(f"destination byte-identical: {identical}")
    if not identical:
        raise SystemExit(f"{title}: the hosted image differs from the source's")


async def scenarios(state_dir: str) -> None:
    rng = np.random.default_rng(42)
    pages = PageStore()
    guest = MemoryImage(NUM_PAGES, zero_filled=False)
    async with CheckpointDaemon(name="host-b", state_dir=state_dir) as daemon:
        daemon.install_checkpoint("vm0", guest.fingerprint())
        packs = daemon.repository.pack_stats()
    print(f"checkpoint committed: {NUM_PAGES} pages, "
          f"{packs['physical_bytes']:,} bytes in {packs['packs']} pack(s)")

    # Scenario 1: the guest did not change at all (idle VM).
    await migrate(state_dir, pages, "idle guest (100% similarity)", "vm0", guest)

    # Scenario 2: a quarter of the pages were overwritten since.
    guest.write_fresh(guest.sample_slots(NUM_PAGES // 4, rng))
    await migrate(state_dir, pages, "25% of pages updated", "vm0", guest)

    # Scenario 3: nothing changed, but the kernel moved pages around —
    # dirty tracking would resend them; checksums find their content in
    # the packs of the checkpoint the last migration left.
    guest.relocate(np.arange(NUM_PAGES), rng)
    await migrate(state_dir, pages, "all pages relocated, none modified", "vm0", guest)

    # Scenario 4: a guest this host has never seen — no checkpoint.
    stranger = MemoryImage(NUM_PAGES, zero_filled=False)
    await migrate(state_dir, pages, "first visit (no checkpoint)", "vm1", stranger)


def main() -> None:
    with tempfile.TemporaryDirectory() as state_dir:
        asyncio.run(scenarios(state_dir))


if __name__ == "__main__":
    main()
