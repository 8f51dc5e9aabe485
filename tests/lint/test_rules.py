"""Per-rule fixtures: positive, negative, and suppressed cases.

Each mutation edits the committed tree in memory (``Project``
overrides) and asserts the rule sees exactly the defect the mutation
introduces — these are the acceptance checks that the linter would
catch the regression classes it was built for.
"""

from repro.lint.rules import (
    asyncsafety,
    determinism,
    faults,
    metricnames,
    protocol,
)

DAEMON = "src/repro/runtime/daemon.py"
FRAMES = "src/repro/runtime/frames.py"
FAULTPOINTS = "src/repro/chaos/faultpoints.py"


def _messages(findings):
    return [f.message for f in findings]


# --- protocol --------------------------------------------------------------


class TestProtocolRule:
    def test_clean_tree_has_no_findings(self, project):
        assert list(protocol.check(project)) == []

    def test_deleted_dispatch_arm_is_flagged(self, project, mutate):
        mutated = project.text(DAEMON).replace(
            "elif tag == TYPE_PAGE_REF:", "elif tag == 0x12:"
        )
        assert mutated != project.text(DAEMON)
        findings = list(protocol.check(mutate({DAEMON: mutated})))
        assert any(
            "TYPE_PAGE_REF" in m and "daemon" in m for m in _messages(findings)
        )

    def test_tag_collision_is_flagged(self, project, mutate):
        mutated = project.text(FRAMES).replace(
            "TYPE_READY = 0x02", "TYPE_READY = 0x01"
        )
        findings = list(protocol.check(mutate({FRAMES: mutated})))
        assert any("collide" in m for m in _messages(findings))

    def test_unnamed_tag_is_flagged(self, project, mutate):
        mutated = project.text(FRAMES) + "\nTYPE_EXTRA = 0x40\n"
        findings = list(protocol.check(mutate({FRAMES: mutated})))
        messages = _messages(findings)
        assert any("TYPE_EXTRA" in m for m in messages)


# --- metric-names ----------------------------------------------------------


class TestMetricNamesRule:
    def test_clean_tree_has_no_findings(self, project):
        assert list(metricnames.check(project)) == []

    def test_renamed_metric_literal_is_flagged(self, project, mutate):
        mutated = project.text(DAEMON).replace(
            '"pipeline.stage_stall_seconds"', '"pipeline.stage_stall_secs"'
        )
        assert mutated != project.text(DAEMON)
        findings = list(metricnames.check(mutate({DAEMON: mutated})))
        assert any(
            "pipeline.stage_stall_secs" in m for m in _messages(findings)
        )

    def test_undeclared_emission_is_flagged(self, mutate):
        rel = "src/repro/runtime/_lintdemo.py"
        project = mutate({rel: (
            "from repro.obs.metrics import get_registry\n"
            "get_registry().counter('runtime.surprise_counter').add(1)\n"
        )})
        findings = list(metricnames.check(project))
        assert any(
            "runtime.surprise_counter" in m for m in _messages(findings)
        )

    def test_suppression_comment_is_honoured(self, mutate):
        rel = "src/repro/runtime/_lintdemo.py"
        project = mutate({rel: (
            "from repro.obs.metrics import get_registry\n"
            "get_registry().counter('runtime.surprise_counter')"
            ".add(1)  # lint: ignore[metric-names]\n"
        )})
        from repro.lint import run_lint
        from repro.lint.rules import rules_by_id

        report = run_lint(project, rules_by_id(["metric-names"]), {})
        assert report.ok
        assert report.suppressed >= 1

    def test_undocumented_declared_name_is_flagged(self, project, mutate):
        docs = "docs/observability.md"
        mutated = project.text(docs).replace(
            "`daemon.peer_errors`", "`daemon.peer_mistakes`"
        )
        assert mutated != project.text(docs)
        findings = list(metricnames.check(mutate({docs: mutated})))
        assert any(
            "daemon.peer_errors" in m and "not documented" in m
            for m in _messages(findings)
        )


# --- fault-points ----------------------------------------------------------


class TestFaultPointsRule:
    def test_clean_tree_has_no_findings(self, project):
        assert list(faults.check(project)) == []

    def test_undeclared_fault_literal_is_flagged(self, mutate):
        rel = "src/repro/storage/_lintdemo.py"
        project = mutate({rel: (
            "class Demo:\n"
            "    def _fault(self, point):\n"
            "        pass\n"
            "    def go(self):\n"
            "        self._fault('bogus.point')\n"
        )})
        findings = list(faults.check(project))
        assert any("bogus.point" in m for m in _messages(findings))

    def test_registry_missing_a_point_is_flagged(self, project, mutate):
        mutated = project.text(FAULTPOINTS).replace(
            '"session.written": '
            '"A completed session record is durably on disk.",',
            "",
        )
        assert mutated != project.text(FAULTPOINTS)
        findings = list(faults.check(mutate({FAULTPOINTS: mutated})))
        assert any(
            "session.written" in m and "not declare" in m
            for m in _messages(findings)
        )

    def test_registry_extra_knob_is_flagged(self, project, mutate):
        mutated = project.text(FAULTPOINTS).replace(
            '"drop_telemetry_times": "Abort this many TELEMETRY probes.",',
            '"drop_telemetry_times": "Abort this many TELEMETRY probes.",\n'
            '    "phantom_knob": "Not actually implemented anywhere.",',
        )
        findings = list(faults.check(mutate({FAULTPOINTS: mutated})))
        assert any("phantom_knob" in m for m in _messages(findings))

    def test_untested_point_is_flagged(self, project, mutate):
        # Hide the only test referencing the knob: the rule demands
        # every declared knob be exercised somewhere under tests/.
        hidden = {
            rel: None
            for rel in project.source_files("tests")
            if "drop_telemetry_times" in (project.try_text(rel) or "")
        }
        assert hidden, "expected at least one test to reference the knob"
        findings = list(faults.check(mutate(hidden)))
        assert any(
            "drop_telemetry_times" in m and "not referenced" in m
            for m in _messages(findings)
        )


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
