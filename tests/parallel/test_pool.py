"""Unit tests for repro.parallel.pool."""

import numpy as np
import pytest

import repro.parallel.pool as pool_module
from repro.parallel import (
    ENV_WORKERS,
    MIN_PARALLEL_SHARDS,
    pmap,
    resolve_workers,
)


def _square(x):
    return x * x


def _first_draw(shard):
    _, seed = shard
    return int(np.random.default_rng(seed).integers(1 << 30))


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers() == 1

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "5")
        assert resolve_workers() == 5

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "lots")
        with pytest.raises(ValueError):
            resolve_workers()


class TestPmap:
    def test_serial_matches_comprehension(self):
        items = list(range(17))
        assert pmap(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_preserves_order(self):
        items = list(range(23))
        assert pmap(_square, items, workers=3) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(11))
        assert pmap(_square, items, workers=4) == pmap(_square, items, workers=1)

    def test_empty_input(self):
        assert pmap(_square, [], workers=4) == []

    def test_single_shard_runs_inline(self):
        assert pmap(_square, [6], workers=4) == [36]

    def test_seeded_parallel_matches_serial(self):
        # A shard carries its own seed, so no worker changes its draw.
        items = [(x, 5000 + x) for x in range(9)]
        serial = pmap(_first_draw, items, workers=1)
        parallel = pmap(_first_draw, items, workers=3)
        assert serial == parallel

    def test_chunk_size_does_not_change_results(self):
        # Two workers, four chunks each: chunks of 1, 1, 2 and 5 shards.
        for count in (4, 8, 13, 40):
            items = list(range(count))
            assert pmap(_square, items, workers=2) == [x * x for x in items]


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created = []

    def __init__(self, max_workers, initializer=None):
        type(self).created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        class _Done:
            def __init__(self, value):
                self._value = value

            def result(self):
                return self._value

        return _Done(fn(*args))


class TestWorkerAutoSizing:
    """Regression tests for the fig8 parallel slowdown (0.92× speedup):
    requesting more workers than cores must not oversubscribe, and tiny
    workloads must not pay process-pool startup at all."""

    @pytest.fixture(autouse=True)
    def _record_pool(self, monkeypatch):
        _RecordingExecutor.created = []
        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", _RecordingExecutor
        )

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 2)
        items = list(range(40))
        assert pmap(_square, items, workers=8) == [x * x for x in items]
        assert _RecordingExecutor.created == [2]

    def test_env_workers_also_clamped(self, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 3)
        monkeypatch.setenv(ENV_WORKERS, "16")
        items = list(range(40))
        assert pmap(_square, items) == [x * x for x in items]
        assert _RecordingExecutor.created == [3]

    def test_small_workloads_run_inline(self, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 8)
        items = list(range(MIN_PARALLEL_SHARDS - 1))
        assert pmap(_square, items, workers=8) == [x * x for x in items]
        assert _RecordingExecutor.created == []

    def test_threshold_boundary_uses_the_pool(self, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 8)
        items = list(range(MIN_PARALLEL_SHARDS))
        assert pmap(_square, items, workers=8) == [x * x for x in items]
        assert len(_RecordingExecutor.created) == 1

    def test_cpu_count_none_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: None)
        items = list(range(20))
        assert pmap(_square, items, workers=4) == [x * x for x in items]
        assert _RecordingExecutor.created == []
