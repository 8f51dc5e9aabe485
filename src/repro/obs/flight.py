"""Flight recorder: the last N events, saved exactly when you crash.

Traces and metrics answer "what happened" for runs that *finish*; a
daemon that dies mid-migration takes its in-memory records with it,
because ``atexit`` never runs under ``os._exit`` or a fatal signal.
The flight recorder closes that gap the way an aircraft one does: a
bounded ring buffer of recent notes (a daemon's session events, a
failed migration, a crash) and WARNING+ log lines that costs a deque
append per event while everything is healthy, and is dumped to a
timestamped JSONL file the moment something is not —

* on any unhandled exception (a chained ``sys.excepthook``),
* on ``SIGUSR2`` (poke a live daemon for its recent history), and
* explicitly, e.g. by the migration executor when it attaches a dump
  to a failed :class:`~repro.orchestrator.executor.MigrationOutcome`.

A dump is the mid-run record and writes no trace file: ``--trace-out``
is written in a ``finally`` around the command, and ``REPRO_TRACE=<path>``
at exit.

Dump files are JSONL: a ``{"kind": "flight-header", ...}`` line, one
``{"kind": "event", ...}`` line per ring entry (oldest first), and a
trailing ``{"kind": "metrics", ...}`` line with the snapshot of the
recorded component's registry — a daemon's own telemetry registry, the
process-wide one for the default ring.
"""

from __future__ import annotations

import collections
import json
import logging
import os
import signal
import sys
import tempfile
import threading
import time
import weakref
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry, get_registry

#: Environment variable overriding where dumps are written.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Ring capacity — enough for several migrations' worth of notes
#: without meaningful memory cost; the oldest events fall off silently.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """A bounded ring of recent observability events for one component.

    Args:
        name: Component name stamped into dump filenames and headers
            (a daemon's host name, or "process" for the default ring).
        registry: The component's metrics registry, snapshotted as each
            dump's trailing line; the process-wide one when omitted.
    """

    def __init__(self, name: str, registry: Optional[MetricsRegistry] = None) -> None:
        self.name = name
        self.registry = registry if registry is not None else get_registry()
        self.events: collections.deque = collections.deque(maxlen=DEFAULT_CAPACITY)
        self.dumps_written = 0
        _recorders.add(self)

    # --- recording ------------------------------------------------------

    def note(self, kind: str, **fields: Any) -> None:
        """Append one event; ``kind`` is its type tag ("log", "crash",
        "daemon.result", or any caller-chosen label)."""
        event = {"t": time.time(), "kind": kind}
        event.update(fields)
        self.events.append(event)

    # --- dumping --------------------------------------------------------

    def dump(
        self, reason: str, directory: Optional[str] = None
    ) -> Optional[str]:
        """Write the ring to a timestamped JSONL file; returns its path.

        Never raises: a recorder that cannot write (read-only disk,
        interpreter teardown) must not mask the original failure it is
        documenting.  Returns ``None`` when the ring is empty or the
        write failed.
        """
        if not self.events:
            return None
        directory = directory or dump_dir()
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = os.path.join(
            directory,
            f"flight-{self.name}-{stamp}-{os.getpid()}-{self.dumps_written}.jsonl",
        )
        try:
            os.makedirs(directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                for line in self._lines(reason):
                    fh.write(line + "\n")
        except OSError:
            return None
        self.dumps_written += 1
        return path

    def _lines(self, reason: str) -> Iterator[str]:
        yield json.dumps(
            {
                "kind": "flight-header",
                "name": self.name,
                "reason": reason,
                "pid": os.getpid(),
                "written_at": time.time(),
                "events": len(self.events),
            }
        )
        for event in self.events:
            yield json.dumps(
                {"kind": "event", **event}, default=_best_effort_json
            )
        yield json.dumps(
            {"kind": "metrics", "metrics": self.registry.snapshot()},
            default=_best_effort_json,
        )


def _best_effort_json(value: Any) -> str:
    return repr(value)


# Weak so recorders die with their daemons; the default process ring is
# kept alive by the module-level strong reference below.
_recorders: "weakref.WeakSet[FlightRecorder]" = weakref.WeakSet()
_default_recorder: Optional[FlightRecorder] = None


def default_recorder() -> FlightRecorder:
    """The process-wide recorder (orchestrator/CLI events land here)."""
    global _default_recorder
    if _default_recorder is None:
        _default_recorder = FlightRecorder("process")
    return _default_recorder


def recorders() -> List[FlightRecorder]:
    """Every live recorder, default ring included."""
    return list(_recorders)


def dump_dir() -> str:
    """Where dumps go: ``$REPRO_FLIGHT_DIR`` or the system tempdir."""
    return os.environ.get(FLIGHT_DIR_ENV) or os.path.join(
        tempfile.gettempdir(), "vecycle-flight"
    )


def dump_all(reason: str, directory: Optional[str] = None) -> List[str]:
    """Dump every live recorder; returns the paths written."""
    paths = []
    for recorder in recorders():
        path = recorder.dump(reason, directory)
        if path:
            paths.append(path)
    return paths


# --- log capture ----------------------------------------------------------


class _RingHandler(logging.Handler):
    """Mirrors WARNING+ log records into the default ring."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            default_recorder().note(
                "log",
                level=record.levelname,
                logger=record.name,
                message=record.getMessage(),
            )
        except Exception:  # noqa: BLE001 - logging must never raise
            pass


# --- installation ---------------------------------------------------------

_installed = False
_previous_excepthook: Optional[Callable] = None


def install() -> None:
    """Arm the crash hooks (idempotent).

    Chains ``sys.excepthook`` so the original traceback still prints,
    binds ``SIGUSR2`` to dump-on-demand (skipped off the main thread,
    where :mod:`signal` refuses handlers), and mirrors WARNING+ logs
    from the ``repro`` logger tree into the default ring.
    """
    global _installed, _previous_excepthook
    if _installed:
        return
    _installed = True

    _previous_excepthook = sys.excepthook

    def _excepthook(exc_type, exc, tb) -> None:
        try:
            default_recorder().note(
                "crash", error=exc_type.__name__, message=str(exc)
            )
            dump_all(f"unhandled {exc_type.__name__}")
        finally:
            hook = _previous_excepthook or sys.__excepthook__
            hook(exc_type, exc, tb)

    sys.excepthook = _excepthook

    if threading.current_thread() is threading.main_thread():
        try:
            signal.signal(signal.SIGUSR2, _on_sigusr2)
        except (ValueError, OSError, AttributeError):
            pass  # non-main interpreter, or a platform without SIGUSR2

    root = logging.getLogger("repro")
    if not any(isinstance(handler, _RingHandler) for handler in root.handlers):
        handler = _RingHandler(level=logging.WARNING)
        handler.name = "repro-flight"
        root.addHandler(handler)


def _on_sigusr2(signum, frame) -> None:
    paths = dump_all("SIGUSR2")
    print(
        "flight recorder: wrote "
        + (", ".join(paths) if paths else "no dumps (rings empty)"),
        file=sys.stderr,
    )


def read_dump(path: str) -> Dict[str, Any]:
    """Parse a dump file back into ``{header, events, metrics}``."""
    header: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    metrics: Dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            kind = entry.get("kind")
            if kind == "flight-header":
                header = entry
            elif kind == "metrics":
                metrics = entry.get("metrics", {})
            else:
                events.append(entry)
    return {"header": header, "events": events, "metrics": metrics}
