"""Structured logging for the reproduction's long-running commands.

A thin layer over stdlib :mod:`logging`, replacing the ad-hoc prints
that used to live in ``experiments/*`` and the CLI: every logger hangs
under the ``repro`` hierarchy, writes to **stderr** (command *output* —
tables, reports — stays on stdout and remains pipeable), and renders
structured key=value context appended to the message.

Usage::

    from repro.obs.log import get_logger

    log = get_logger(__name__)                # "repro.experiments.fig8_vdi"
    log.info("replaying VDI schedule", migrations=26, ram_gib=8)

Verbosity is wired to the CLI's ``-v/--verbose`` and ``-q/--quiet``
flags through :func:`configure`; library use without configuration
inherits whatever the host application set up (no handler is installed
at import time).
"""

from __future__ import annotations

import logging
import sys
from typing import Any, Optional

ROOT_NAME = "repro"

_LEVELS = {
    -1: logging.ERROR,  # -q
    0: logging.WARNING,  # default: silent unless something is wrong
    1: logging.INFO,  # -v
    2: logging.DEBUG,  # -vv
}


class KeyValueLogger(logging.LoggerAdapter):
    """Logger adapter rendering keyword context as trailing key=value."""

    def process(self, msg: str, kwargs: Any):
        """Fold non-reserved keyword arguments into the message text."""
        reserved = {"exc_info", "stack_info", "stacklevel", "extra"}
        context = {k: v for k, v in kwargs.items() if k not in reserved}
        passthrough = {k: v for k, v in kwargs.items() if k in reserved}
        if context:
            pairs = " ".join(f"{key}={value}" for key, value in context.items())
            msg = f"{msg}  {pairs}"
        return msg, passthrough


def get_logger(name: Optional[str] = None) -> KeyValueLogger:
    """A structured logger under the ``repro`` hierarchy.

    ``name`` is usually ``__name__``; anything not already below
    ``repro`` is nested under it so :func:`configure` governs it.
    """
    if not name:
        qualified = ROOT_NAME
    elif name == ROOT_NAME or name.startswith(ROOT_NAME + "."):
        qualified = name
    else:
        qualified = f"{ROOT_NAME}.{name}"
    return KeyValueLogger(logging.getLogger(qualified), {})


class _StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is at each record, as
    :data:`logging.lastResort` does: a caller that swaps stderr out and
    closes it (a test's capture) leaves no handler on a closed file."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def configure(verbosity: int = 0, stream=None) -> logging.Logger:
    """Install a stderr handler on the ``repro`` root at ``verbosity``.

    ``verbosity``: -1 quiet (errors only), 0 default (warnings),
    1 info, >=2 debug.  Idempotent: reconfiguring replaces the handler
    installed by a previous call instead of stacking duplicates.
    """
    level = _LEVELS.get(max(-1, min(verbosity, 2)), logging.WARNING)
    root = logging.getLogger(ROOT_NAME)
    root.setLevel(level)
    handler = logging.StreamHandler(stream) if stream is not None else _StderrHandler()
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
    )
    handler.set_name("repro-obs")
    for existing in list(root.handlers):
        if existing.get_name() == "repro-obs":
            root.removeHandler(existing)
    root.addHandler(handler)
    root.propagate = False
    return root
