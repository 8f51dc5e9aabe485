"""Structured logging: key=value rendering, hierarchy, verbosity."""

from __future__ import annotations

import io
import logging
import sys

import pytest

from repro.obs.log import configure, get_logger


@pytest.fixture(autouse=True)
def restore_logging():
    yield
    configure(verbosity=0)


def test_get_logger_nests_under_repro():
    assert get_logger("repro.runtime.source").logger.name == "repro.runtime.source"
    assert get_logger("benchmarks.helper").logger.name == "repro.benchmarks.helper"
    assert get_logger().logger.name == "repro"


def test_key_value_rendering():
    stream = io.StringIO()
    configure(verbosity=1, stream=stream)
    get_logger("test").info("migration done", vm="vm0", bytes=1234)
    output = stream.getvalue()
    assert "migration done  vm=vm0 bytes=1234" in output
    assert "INFO" in output and "repro.test" in output


def test_verbosity_levels():
    for verbosity, level in ((-1, logging.ERROR), (0, logging.WARNING),
                             (1, logging.INFO), (2, logging.DEBUG),
                             (5, logging.DEBUG)):
        root = configure(verbosity=verbosity, stream=io.StringIO())
        assert root.level == level


def test_configure_is_idempotent():
    stream = io.StringIO()
    configure(verbosity=0, stream=stream)
    root = configure(verbosity=0, stream=stream)
    named = [h for h in root.handlers if h.get_name() == "repro-obs"]
    assert len(named) == 1


def test_default_verbosity_suppresses_info():
    stream = io.StringIO()
    configure(verbosity=0, stream=stream)
    log = get_logger("quiet")
    log.info("hidden", detail=1)
    log.warning("shown")
    output = stream.getvalue()
    assert "hidden" not in output
    assert "shown" in output


def test_default_handler_writes_to_the_stderr_of_the_moment(monkeypatch):
    # A capture that configured logging, then closed and swapped out its
    # stderr (what pytest's capsys does around a CLI test), must not
    # leave the handler writing into the closed stream.
    captured = io.StringIO()
    monkeypatch.setattr(sys, "stderr", captured)
    configure(verbosity=0)
    captured.close()
    current = io.StringIO()
    monkeypatch.setattr(sys, "stderr", current)
    get_logger("swap").warning("after the swap")
    output = current.getvalue()
    assert "after the swap" in output
    assert "Logging error" not in output
