"""Per-rule fixtures: positive, negative, and suppressed cases.

Each mutation edits the committed tree in memory (``Project``
overrides) and asserts the rule sees exactly the defect the mutation
introduces — these are the acceptance checks that the linter would
catch the regression classes it was built for.
"""

from repro.lint.rules import asyncsafety, determinism


def _messages(findings):
    return [f.message for f in findings]


# --- async-safety ----------------------------------------------------------


class TestAsyncSafetyRule:
    def test_clean_tree_has_no_findings(self, project):
        assert list(asyncsafety.check(project)) == []

    def test_time_sleep_in_async_def_is_flagged(self, mutate):
        rel = "src/repro/runtime/_lintdemo.py"
        project = mutate({rel: (
            "import time\n"
            "async def serve():\n"
            "    time.sleep(1.0)\n"
        )})
        findings = list(asyncsafety.check(project))
        assert any("time.sleep" in m for m in _messages(findings))

    def test_sync_def_is_not_flagged(self, mutate):
        rel = "src/repro/runtime/_lintdemo.py"
        project = mutate({rel: (
            "import time\n"
            "def flush():\n"
            "    time.sleep(1.0)\n"
        )})
        assert list(asyncsafety.check(project)) == []

    def test_nested_sync_helper_is_not_flagged(self, mutate):
        rel = "src/repro/runtime/_lintdemo.py"
        project = mutate({rel: (
            "import time\n"
            "async def serve():\n"
            "    def blocking_io():\n"
            "        time.sleep(1.0)\n"
            "    return blocking_io\n"
        )})
        assert list(asyncsafety.check(project)) == []

    def test_sync_open_in_async_def_is_flagged(self, mutate):
        rel = "src/repro/runtime/_lintdemo.py"
        project = mutate({rel: (
            "async def dump():\n"
            "    with open('/tmp/x', 'w') as fh:\n"
            "        fh.write('x')\n"
        )})
        findings = list(asyncsafety.check(project))
        assert any("open()" in m for m in _messages(findings))

    def test_unawaited_coroutine_is_flagged(self, mutate):
        rel = "src/repro/runtime/_lintdemo.py"
        project = mutate({rel: (
            "class Daemon:\n"
            "    async def _drain(self):\n"
            "        pass\n"
            "    async def stop(self):\n"
            "        self._drain()\n"
        )})
        findings = list(asyncsafety.check(project))
        assert any("_drain" in m and "awaited" in m for m in _messages(findings))

    def test_scheduled_coroutine_is_not_flagged(self, mutate):
        rel = "src/repro/runtime/_lintdemo.py"
        project = mutate({rel: (
            "import asyncio\n"
            "class Daemon:\n"
            "    async def _drain(self):\n"
            "        pass\n"
            "    async def stop(self):\n"
            "        await self._drain()\n"
            "        asyncio.create_task(self._drain())\n"
        )})
        assert list(asyncsafety.check(project)) == []


# --- determinism -----------------------------------------------------------


class TestDeterminismRule:
    def test_clean_tree_has_no_findings(self, project):
        assert list(determinism.check(project)) == []

    def test_wallclock_in_seeded_module_is_flagged(self, mutate):
        rel = "src/repro/chaos/_lintdemo.py"
        project = mutate({rel: (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )})
        findings = list(determinism.check(project))
        assert any("time.time" in m for m in _messages(findings))

    def test_unseeded_random_draw_is_flagged(self, mutate):
        rel = "src/repro/parallel/_lintdemo.py"
        project = mutate({rel: (
            "import random\n"
            "def pick():\n"
            "    return random.random()\n"
        )})
        findings = list(determinism.check(project))
        assert any("random.random" in m for m in _messages(findings))

    def test_seeded_constructors_are_allowed(self, mutate):
        rel = "src/repro/traces/_lintdemo.py"
        project = mutate({rel: (
            "import random\n"
            "import numpy as np\n"
            "def make(seed):\n"
            "    return random.Random(seed), np.random.default_rng(seed)\n"
        )})
        assert list(determinism.check(project)) == []

    def test_instance_rng_calls_are_allowed(self, mutate):
        rel = "src/repro/chaos/_lintdemo.py"
        project = mutate({rel: (
            "class Soak:\n"
            "    def __init__(self, rng):\n"
            "        self.rng = rng\n"
            "    def pick(self):\n"
            "        return self.rng.random()\n"
        )})
        assert list(determinism.check(project)) == []

    def test_monotonic_is_allowed_for_measurement(self, mutate):
        rel = "src/repro/chaos/_lintdemo.py"
        project = mutate({rel: (
            "import time\n"
            "def measure():\n"
            "    return time.monotonic()\n"
        )})
        assert list(determinism.check(project)) == []

    def test_os_urandom_is_flagged(self, mutate):
        rel = "src/repro/mem/mutation.py"
        project_obj = mutate({rel: (
            "import os\n"
            "def entropy():\n"
            "    return os.urandom(8)\n"
        )})
        findings = list(determinism.check(project_obj))
        assert any("os.urandom" in m for m in _messages(findings))
