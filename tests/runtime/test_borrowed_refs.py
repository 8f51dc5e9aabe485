"""Copy-on-write sink sessions: who holds which content-store reference.

A session borrows the references its preloaded checkpoint holds and owns
one only for a slot it rewrote.  Counted with wrappers around the store's
four reference calls (as ``test_full_page_path_counts.py`` counts its
calls): an idle return moves no reference at all, and a return with churn
moves exactly one retain and one release per rewritten slot.  Then the
borrowed references under replacement: a checkpoint dropped, or replaced
by an install or by another session's COMPLETE, while a session borrows
it — and a session resumed after a disconnect.  After every step the
audit is clean, no borrowed page is evicted, and the session still
completes with the source's digests.
"""

import asyncio
from collections import Counter

import numpy as np
import pytest

from repro.core.strategies import VECYCLE
from repro.mem.pagestore import ContentAddressedStore, PageStore
from repro.runtime import (
    CheckpointDaemon,
    MigrationError,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
    idle_vm_scenario,
)

FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)
ONE_ATTEMPT = RuntimeConfig(
    io_timeout_s=5.0, connect_timeout_s=5.0, retry=RetryPolicy(max_attempts=1)
)


def warm_store(*images: np.ndarray) -> PageStore:
    store = PageStore(cache_limit=16 * 1024)
    for content_id in np.unique(np.concatenate(images)).tolist():
        store.page_bytes(content_id)
    return store


def source_for(scenario, store, config=FAST) -> MigrationSource:
    return MigrationSource(
        SourceState(
            vm_id=scenario.vm_id, hashes=scenario.current.hashes, pagestore=store
        ),
        VECYCLE,
        config=config,
    )


def count_references(monkeypatch) -> Counter:
    """Digests passed to ``retain``/``release``, one- or many-at-a-time."""
    touched = Counter()

    def counted(name, many):
        original = getattr(ContentAddressedStore, name)
        kind = name.split("_")[0]

        def wrapper(self, arg):
            if many:
                arg = list(arg)
                touched[kind] += sum(digest is not None for digest in arg)
            else:
                touched[kind] += 1
            return original(self, arg)

        monkeypatch.setattr(ContentAddressedStore, name, wrapper)

    for name in ("retain", "release"):
        counted(name, many=False)
        counted(f"{name}_many", many=True)
    return touched


class TestReferencesMoved:
    @pytest.mark.parametrize("updates_percent", [0, 3])
    def test_one_retain_and_one_release_per_rewritten_slot(
        self, monkeypatch, updates_percent
    ):
        scenario = idle_vm_scenario(
            size_mib=4, updates_percent=updates_percent, strategy=VECYCLE, seed=3
        )
        store = warm_store(scenario.current.hashes, scenario.checkpoint.hashes)
        before = store.digests_for(scenario.checkpoint.hashes)
        after = store.digests_for(scenario.current.hashes)
        rewritten = sum(old != new for old, new in zip(before, after))
        assert rewritten == round(scenario.num_pages * updates_percent / 100)

        async def main():
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                daemon.install_checkpoint(scenario.vm_id, scenario.checkpoint)
                # Set-up is done: from here on, every reference is counted.
                touched = count_references(monkeypatch)
                source = source_for(scenario, store)
                metrics = await source.migrate(daemon.host, daemon.port)
                (session,) = daemon._sessions.values()
                return metrics, touched, daemon, session

        metrics, touched, daemon, session = asyncio.run(main())
        assert metrics.outcome == "completed"
        # Session open, apply and adoption: an unchanged image moves none.
        assert touched == Counter(
            {"retain": rewritten, "release": rewritten} if rewritten else {}
        )
        assert daemon.checkpoints[scenario.vm_id].slot_digests == after
        assert daemon.audit_store() == []
        # The completed session let go of its base along with its slots.
        assert session.base is None and session.slot_digests == []

    def test_an_unchanged_image_keeps_its_views(self):
        scenario = idle_vm_scenario(size_mib=1, updates_percent=0, seed=4)
        store = warm_store(scenario.current.hashes)

        async def main():
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                first = daemon.install_checkpoint(scenario.vm_id, scenario.checkpoint)
                announce = first.announce_digests
                sketch = first.sketch
                await source_for(scenario, store).migrate(daemon.host, daemon.port)
                second = daemon.checkpoints[scenario.vm_id]
                return first, second, announce, sketch

        first, second, announce, sketch = asyncio.run(main())
        assert second is not first and second.generation == first.generation + 1
        assert second.slot_digests == first.slot_digests
        assert second.distinct is first.distinct
        assert second.announce_digests is announce
        assert second.sketch is sketch


def replace_by_drop(daemon, scenario, _store):
    daemon.drop_checkpoint(scenario.vm_id)


def replace_by_install(daemon, scenario, _store):
    # Different contents: the old checkpoint's pages lose their only
    # checkpoint reference.
    other = idle_vm_scenario(size_mib=4, updates_percent=0, seed=99)
    daemon.install_checkpoint(scenario.vm_id, other.checkpoint)


async def replace_by_complete(daemon, scenario, store):
    # A second session for the same VM completes with another image.
    other = idle_vm_scenario(size_mib=4, updates_percent=50, seed=3)
    rival = source_for(other, warm_store(other.current.hashes))
    metrics = await rival.migrate(daemon.host, daemon.port)
    assert metrics.outcome == "completed"


class TestBorrowedUnderReplacement:
    @pytest.mark.parametrize(
        "replace",
        [None, replace_by_drop, replace_by_install, replace_by_complete],
        ids=["resumed", "dropped", "installed-over", "completed-over"],
    )
    def test_the_session_still_completes_with_the_source_digests(self, replace):
        scenario = idle_vm_scenario(
            size_mib=4, updates_percent=30, strategy=VECYCLE, seed=3
        )
        store = warm_store(scenario.current.hashes, scenario.checkpoint.hashes)

        async def main():
            async with CheckpointDaemon(pagestore=PageStore()) as daemon:
                hosted = daemon.install_checkpoint(scenario.vm_id, scenario.checkpoint)
                daemon.inject_disconnect(after_messages=100)
                source = source_for(scenario, store, config=ONE_ATTEMPT)
                with pytest.raises(MigrationError):
                    await source.migrate(daemon.host, daemon.port)
                session = daemon._sessions[source.session_id]
                assert not session.completed and session.total_applied == 100
                assert session.base is hosted
                assert daemon.audit_store() == []
                image = list(session.slot_digests)

                if replace is not None:
                    step = replace(daemon, scenario, store)
                    if asyncio.iscoroutine(step):
                        await step
                    # The session took references of its own first.
                    assert session.base is None
                assert daemon.audit_store() == []
                assert all(digest in daemon.store for digest in image)

                source.config = FAST
                metrics = await source.migrate(daemon.host, daemon.port)
                assert metrics.outcome == "completed"
                return daemon, source

        daemon, source = asyncio.run(main())
        assert daemon.checkpoint_digests(scenario.vm_id) == source.final_digests()
        assert daemon.checkpoints[scenario.vm_id].slot_digests == store.digests_for(
            scenario.current.hashes
        )
        assert daemon.audit_store() == []
