"""End-to-end telemetry: structured tracing, metrics, SLO accounting, logging.

This package is the repo's observability layer (ROADMAP item 5): it makes the
paper's north-star metric — user-visible latency per Explore iteration —
measurable from outside the process.  It has three parts:

* **Tracing** (:mod:`.tracing`): ``Span`` context managers with monotonic
  timings, attributes, and parent/child nesting.  A scheduler task carries
  the span it was created under, so background extraction that runs in a
  later labeling window still nests under the iteration that enqueued it.
* **Metrics** (:mod:`.metrics`): named counters, gauges, and fixed-bucket
  histograms (p50/p95/p99) for the hot paths — design-matrix cache outcomes,
  warm vs. cold fits, index search latency, journal fsync and snapshot
  durations, scheduler visible/background time per task kind.
* **Exporters + SLO** (:mod:`.exporters`, :mod:`.slo`): a JSONL trace sink, a
  Chrome ``chrome://tracing`` trace-event file, a human ``RunReport``,
  per-iteration budget verdicts against
  ``TelemetryConfig.visible_latency_slo_s``, and the serving tier's
  per-request-class roll-up, recorded in and read back from one
  :class:`~repro.telemetry.metrics.MetricsRegistry`.

Instrumented call sites go through the *module facade* defined here::

    from .. import telemetry

    with telemetry.span("search", "index", fid=fid, k=k):
        ...
    telemetry.histogram("index.search_seconds").observe(elapsed)

Telemetry is **disabled by default**: with no active run every facade call
returns a shared null object and costs one function call — the telemetry
benchmark gates this overhead at <= 3% (and full tracing at <= 10%).  A run
is activated by :func:`start_run` (usually via ``TelemetryConfig`` on the
session) and deactivated by closing it.  Because the facade functions are
plain module attributes, the benchmark can also monkeypatch them with bare
no-ops to measure the call sites' residual cost.
"""

from __future__ import annotations

import logging
import sys

from . import runtime as _runtime
from . import tracing as _tracing
from .exporters import (
    ChromeTraceSink,
    JsonlTraceSink,
    MemorySink,
    load_run,
    render_report,
)
from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .runtime import TelemetryRun, active_run, shutdown, start_run
from .slo import (
    IterationSLO,
    SLOAccountant,
    format_request_class,
    record_request,
    request_summary,
)
from .tracing import NULL_SPAN, NullSpan, Span, TaskScope, Tracer

__all__ = [
    # run lifecycle
    "TelemetryRun",
    "start_run",
    "active_run",
    "shutdown",
    "enabled",
    # tracing facade
    "span",
    "start_span",
    "current_span",
    "capture_context",
    "activate",
    "task_scope",
    # metrics facade
    "counter",
    "gauge",
    "histogram",
    # logging
    "configure_logging",
    # building blocks
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "TaskScope",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "DEFAULT_BUCKETS",
    "COUNT_BUCKETS",
    "SLOAccountant",
    "IterationSLO",
    "record_request",
    "request_summary",
    "format_request_class",
    "JsonlTraceSink",
    "ChromeTraceSink",
    "MemorySink",
    "render_report",
    "load_run",
]


# --------------------------------------------------------------------- status
def enabled() -> bool:
    """True while a telemetry run is active (the facade's fast-path check)."""
    return _runtime._ACTIVE is not None


# -------------------------------------------------------------------- tracing
def span(name: str, category: str = "app", metric: str | None = None, **attributes) -> Span:
    """Create a span to use as a context manager (null no-op when disabled).

    The ``with`` statement activates it under the thread's current span.
    ``metric`` optionally names a histogram that receives the span's duration
    on end, so one call site feeds both the trace and the metrics registry.
    """
    run = _runtime._ACTIVE
    if run is None:
        return NULL_SPAN
    return run.tracer.span(
        name,
        category,
        attributes=attributes or None,
        metric=run.metrics.histogram(metric) if metric is not None else None,
    )


def start_span(name: str, category: str = "app", **attributes) -> Span:
    """Open and activate a span that outlives the calling frame.

    The caller owns the span and must call ``.end()`` on it — used for the
    per-iteration session spans that start in ``explore`` and end in
    ``finish_iteration``.  Returns the shared null span when disabled.
    """
    run = _runtime._ACTIVE
    if run is None:
        return NULL_SPAN
    return run.tracer.span(name, category, attributes=attributes or None).__enter__()


def current_span() -> Span | None:
    """The thread's active span (None at top level or while disabled)."""
    if _runtime._ACTIVE is None:
        return None
    return _tracing.current_span()


def capture_context() -> Span | None:
    """Snapshot the active span for later re-activation.

    Tasks call this at creation time so the scheduler can parent a task's
    span to the iteration that created the task, whenever the task runs.
    """
    if _runtime._ACTIVE is None:
        return None
    return _tracing.current_span()


def activate(context: Span | None):
    """Context manager installing a captured span as the active parent.

    ``activate(None)`` explicitly clears the context (isolating a thread from
    leftovers); when telemetry is disabled the shared null span is returned.
    """
    run = _runtime._ACTIVE
    if run is None:
        return NULL_SPAN
    return run.tracer.activate(context)


def task_scope(task, phase: str):
    """Execution scope for one scheduler task slice.

    Re-activates ``task.trace_context`` and opens a ``task:<kind>`` span in
    the ``scheduler`` category; a shared no-op while disabled.
    """
    run = _runtime._ACTIVE
    if run is None:
        return NULL_SPAN
    return TaskScope(run.tracer, task, phase)


# -------------------------------------------------------------------- metrics
def counter(name: str) -> Counter:
    """The active run's counter ``name`` (a shared no-op when disabled)."""
    run = _runtime._ACTIVE
    if run is None:
        return NULL_COUNTER
    return run.metrics.counter(name)


def gauge(name: str) -> Gauge:
    """The active run's gauge ``name`` (a shared no-op when disabled)."""
    run = _runtime._ACTIVE
    if run is None:
        return NULL_GAUGE
    return run.metrics.gauge(name)


def histogram(name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
    """The active run's histogram ``name`` (a shared no-op when disabled)."""
    run = _runtime._ACTIVE
    if run is None:
        return NULL_HISTOGRAM
    return run.metrics.histogram(name, buckets)


# -------------------------------------------------------------------- logging
_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def configure_logging(level: str | int = "info", stream=None, fmt: str | None = None) -> None:
    """Configure root logging for the repo's module-level loggers.

    Every module in ``repro`` (and the benchmarks) logs through
    ``logging.getLogger(__name__)``; this helper installs one stream handler
    on the root logger.  Reconfigures on every call (``force=True``), so the
    CLI's ``--log-level`` and the benchmarks' plain-message format can each
    take over cleanly.

    Args:
        level: ``"debug"``/``"info"``/``"warning"``/``"error"`` or a
            ``logging`` level int.
        stream: Destination stream (default ``sys.stderr``).
        fmt: ``logging`` format string; the default includes level and logger
            name, while benchmarks pass ``"%(message)s"`` for plain output.
    """
    if isinstance(level, str):
        try:
            resolved = _LEVELS[level.lower()]
        except KeyError:
            raise ValueError(
                f"unknown log level {level!r}; expected one of {sorted(_LEVELS)}"
            ) from None
    else:
        resolved = int(level)
    logging.basicConfig(
        level=resolved,
        stream=stream if stream is not None else sys.stderr,
        format=fmt if fmt is not None else "%(levelname)s %(name)s: %(message)s",
        force=True,
    )
