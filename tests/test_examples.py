"""Smoke tests: the shipped examples must actually run.

Each example is executed in-process (imported as a module and its
``main()`` called) with stdout captured.  The slowest examples
(19-day trace generation) are exercised through their building blocks
elsewhere; here we run the ones that finish in seconds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def load_example(name):
    """Import an example script as a module without running __main__."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart.py").main()
        out = capsys.readouterr().out
        assert "vecycle" in out and "qemu" in out
        assert "wan-cloudnet" in out

    def test_byte_level_protocol(self, capsys):
        load_example("byte_level_protocol.py").main()
        out = capsys.readouterr().out
        assert "idle guest (100% similarity)" in out
        assert "destination byte-identical: True" in out
        assert "first visit (no checkpoint)" in out

    def test_whole_vm_wan_move(self, capsys):
        load_example("whole_vm_wan_move.py").main()
        out = capsys.readouterr().out
        assert "Outbound" in out and "Return" in out
        assert "whole-vm[vecycle]" in out

    def test_consolidation_fleet(self, capsys):
        load_example("consolidation_fleet.py").act_two_follow_the_sun()
        out = capsys.readouterr().out
        assert "28 migrations" in out and "first flip moved" in out

    def test_wan_evacuation_importable(self):
        module = load_example("wan_evacuation.py")
        assert hasattr(module, "evacuate_and_return")

    def test_vdi_consolidation_importable(self):
        module = load_example("vdi_consolidation.py")
        assert hasattr(module, "analytic_replay")
        assert hasattr(module, "live_week")

    def test_trace_analysis_importable(self):
        module = load_example("trace_analysis.py")
        assert hasattr(module, "main")

    def test_every_example_has_module_docstring(self):
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            text = path.read_text()
            assert text.lstrip().startswith(('"""', "#!")), path.name
            assert '"""' in text, path.name
