"""Unified observability: spans, metrics, and exporters.

``repro.obs`` is the cross-cutting instrumentation layer shared by the
analytic migration engine, the live asyncio runtime, and the cluster
simulator.  It has three pieces:

* a **span tracer** (:func:`span`, :class:`Tracer`) — nested, timed
  regions carrying wall *and* modelled clock, task-safe via
  contextvars, near-free when disabled;
* a **metrics registry** (:func:`get_registry`) — counters, gauges,
  and fixed-bucket histograms;
* **exporters** (:mod:`repro.obs.export`) — JSONL event log, Chrome
  ``trace_event`` JSON for ``chrome://tracing``/Perfetto, and a
  terminal summary tree.

Tracing is off by default.  Turn it on with :func:`enable`, the CLI's
``--trace-out`` flag, or the ``REPRO_TRACE`` environment variable
(``REPRO_TRACE=1`` enables; ``REPRO_TRACE=/tmp/run.jsonl`` also writes
the trace at exit).  Both paths write through :func:`export_trace`, so
the file is the same either way: ``.jsonl`` gets the event log, any
other name Chrome JSON.
"""

from repro.obs.export import (
    export_trace,
    read_jsonl,
    summary_tree,
    to_chrome_trace,
    to_jsonl_lines,
)
from repro.obs.flight import (
    FlightRecorder,
    default_recorder,
    dump_all,
    install as install_flight_recorder,
    read_dump,
)
from repro.obs.log import KeyValueLogger, configure as configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PAGE_BYTES_BUCKETS,
    ROUND_SECONDS_BUCKETS,
    get_registry,
    quantile_from_state,
)
from repro.obs.prometheus import MetricsServer, render_sections
from repro.obs.telemetry import MetricsSnapshot, TelemetrySource
from repro.obs.trace import (
    ENV_TOGGLE,
    NOOP_SPAN,
    Span,
    SpanRecord,
    Tracer,
    configure_from_env,
    disable,
    enable,
    event,
    get_tracer,
    is_enabled,
    reset,
    span,
)

configure_from_env()

__all__ = [
    "Counter",
    "ENV_TOGGLE",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KeyValueLogger",
    "MetricsRegistry",
    "MetricsServer",
    "MetricsSnapshot",
    "NOOP_SPAN",
    "PAGE_BYTES_BUCKETS",
    "ROUND_SECONDS_BUCKETS",
    "Span",
    "SpanRecord",
    "TelemetrySource",
    "Tracer",
    "configure_from_env",
    "configure_logging",
    "default_recorder",
    "disable",
    "dump_all",
    "enable",
    "event",
    "export_trace",
    "get_logger",
    "get_registry",
    "get_tracer",
    "install_flight_recorder",
    "is_enabled",
    "quantile_from_state",
    "read_dump",
    "read_jsonl",
    "render_sections",
    "reset",
    "span",
    "summary_tree",
    "to_chrome_trace",
    "to_jsonl_lines",
]
