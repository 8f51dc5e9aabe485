"""Span-based tracer: the timeline backbone of :mod:`repro.obs`.

A *span* is one named, timed region of work — "connect", "round",
"migration.simulate" — opened as a context manager and nested through
:mod:`contextvars`, so concurrent asyncio tasks (the migration source
and the checkpoint daemon sharing one event loop) each build their own
branch of the tree without locks or explicit parent passing.

Two clocks per span:

* **wall**: ``time.monotonic`` — what the process actually spent;
* **modelled**: the analytic link/CPU model's full-scale seconds,
  attached via :meth:`Span.add_modelled` by code that knows what the
  same work would cost at ``time_scale=1``.

The tracer is *disabled by default* and must stay near-free that way:
:func:`span` returns a preallocated no-op context manager without
touching the clock, allocating a frame record, or formatting a single
attribute, so instrumented hot loops (``compute_transfer_set`` over a
whole trace) pay only one attribute load and one truth test per call.

Enable programmatically (:func:`enable`) or with the ``REPRO_TRACE``
environment variable: ``REPRO_TRACE=1`` turns the tracer on;
``REPRO_TRACE=/path/to/trace.jsonl`` additionally writes the trace at
interpreter exit, through the same writer as ``--trace-out``.
"""

from __future__ import annotations

import atexit
import contextvars
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

ENV_TOGGLE = "REPRO_TRACE"
_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"", "0", "false", "no", "off"}


@dataclass
class SpanRecord:
    """One finished span, as the exporters see it.

    Attributes:
        span_id / parent_id: Tree structure (``parent_id`` 0 at roots).
        name: The span's label; dotted prefixes group subsystems
            ("runtime.migrate", "migration.round").
        start_s: Seconds since the tracer's epoch when the span opened.
        duration_s: Wall-clock length (monotonic).
        modelled_s: Accumulated modelled-clock seconds (0 when no model
            contributed).
        task: Label of the thread/asyncio task the span ran in — the
            Chrome exporter's ``tid`` lane.
        attrs: Free-form key → JSON-compatible value annotations.
        kind: "span" or "instant" (zero-duration point event).
    """

    span_id: int
    parent_id: int
    name: str
    start_s: float
    duration_s: float = 0.0
    modelled_s: float = 0.0
    task: str = "main"
    attrs: Dict[str, Any] = field(default_factory=dict)
    kind: str = "span"

    def to_dict(self) -> Dict[str, Any]:
        """JSONL line payload; :func:`SpanRecord.from_dict` inverts it."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "modelled_s": self.modelled_s,
            "task": self.task,
            "attrs": dict(self.attrs),
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            span_id=int(data["id"]),
            parent_id=int(data["parent"]),
            name=str(data["name"]),
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            modelled_s=float(data.get("modelled_s", 0.0)),
            task=str(data.get("task", "main")),
            attrs=dict(data.get("attrs", {})),
            kind=str(data.get("kind", "span")),
        )


class Span:
    """A live span: context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_record", "_token", "_start_monotonic")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._record = SpanRecord(
            span_id=next(tracer._ids),
            parent_id=0,
            name=name,
            start_s=0.0,
            attrs=attrs,
        )
        self._token: Optional[contextvars.Token] = None
        self._start_monotonic = 0.0

    # -- annotations -----------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes on the span."""
        self._record.attrs.update(attrs)
        return self

    def add_modelled(self, seconds: float) -> "Span":
        """Accumulate modelled-clock seconds onto the span."""
        self._record.modelled_s += seconds
        return self

    @property
    def duration_s(self) -> float:
        """Wall duration; final once the span has exited."""
        return self._record.duration_s

    @property
    def record(self) -> SpanRecord:
        return self._record

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        parent = tracer._current.get()
        self._record.parent_id = parent
        self._record.task = _task_label()
        self._token = tracer._current.set(self._record.span_id)
        self._start_monotonic = time.monotonic()
        self._record.start_s = self._start_monotonic - tracer.epoch
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self._record.duration_s = time.monotonic() - self._start_monotonic
        if exc_type is not None:
            self._record.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            self._tracer._current.reset(self._token)
            self._token = None
        self._tracer.records.append(self._record)


class _NoopSpan:
    """The disabled-tracer stand-in: every operation is a no-op.

    A single module-level instance is reused for every ``with span(...)``
    in the disabled state, so instrumentation costs one function call,
    one attribute load, and zero allocations per region.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    def set(self, **_attrs: Any) -> "_NoopSpan":
        return self

    def add_modelled(self, _seconds: float) -> "_NoopSpan":
        return self

    @property
    def duration_s(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


def _task_label() -> str:
    """Name of the running asyncio task, or "main" outside a loop."""
    try:
        import asyncio

        task = asyncio.current_task()
    except RuntimeError:
        task = None
    if task is None:
        return "main"
    return task.get_name()


class Tracer:
    """Collects :class:`SpanRecord` objects for one process.

    Thread/task safety: the *current span* is a :class:`contextvars`
    variable, copied into every new asyncio task, so concurrent tasks
    nest independently; the finished-record list is only appended to
    (atomic under the GIL).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.epoch = time.monotonic()
        self.records: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "repro_obs_current_span", default=0
        )

    # -- recording -------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span; returns the no-op singleton when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous point event (zero duration)."""
        if not self.enabled:
            return
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=self._current.get(),
            name=name,
            start_s=time.monotonic() - self.epoch,
            task=_task_label(),
            attrs=attrs,
            kind="instant",
        )
        self.records.append(record)

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        """Start recording spans."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; instrumentation reverts to no-ops."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all records and restart the relative clock."""
        self.records = []
        self.epoch = time.monotonic()
        self._ids = itertools.count(1)

    def finished(self) -> List[SpanRecord]:
        """The recorded spans, in completion order."""
        return list(self.records)


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


def span(name: str, **attrs: Any):
    """Open a span on the default tracer (module-level convenience).

    Usage::

        with obs.span("checksum_exchange", vm=vm_id) as sp:
            ...
            sp.set(pages=n).add_modelled(model_seconds)
    """
    tracer = _tracer
    if not tracer.enabled:
        return NOOP_SPAN
    return Span(tracer, name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an instantaneous event on the default tracer."""
    _tracer.event(name, **attrs)


def enable() -> None:
    """Turn the default tracer on."""
    _tracer.enable()


def disable() -> None:
    """Turn the default tracer off (instrumentation becomes no-ops)."""
    _tracer.disable()


def is_enabled() -> bool:
    """Whether the default tracer is currently recording."""
    return _tracer.enabled


def reset() -> None:
    """Clear the default tracer's records and restart its clock."""
    _tracer.reset()


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[str]:
    """Apply the ``REPRO_TRACE`` toggle; returns the export path, if any.

    ``REPRO_TRACE=1`` (or true/yes/on) enables tracing.  Any other
    non-false value is a trace path: tracing is enabled and
    :func:`~repro.obs.export.export_trace` writes the path at interpreter
    exit, in the format its suffix names, with the process-wide metrics
    as they stand then.
    """
    env = os.environ if environ is None else environ
    raw = env.get(ENV_TOGGLE, "").strip()
    if raw.lower() in _FALSY:
        return None
    _tracer.enable()
    if raw.lower() in _TRUTHY:
        return None
    from repro.obs.export import export_trace  # export imports this module

    atexit.register(export_trace, raw)
    return raw
