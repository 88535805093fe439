"""Zero-dependency tracing core: spans, context propagation, sinks.

A :class:`Span` is one timed region of work.  Spans carry a name, a category
(the subsystem that emitted them — ``"scheduler"``, ``"models"``, ...), free
attributes, and monotonic start/end timestamps from ``time.perf_counter``.
They nest: the currently active span is tracked in a ``contextvars``
ContextVar, so a span opened while another is active records it as its
parent.  ContextVars are per-thread, which gives new threads a clean slate.
The scheduler re-activates a task's captured context when the task runs
(see :class:`TaskScope`), so background work still nests under the
iteration that enqueued it.

Spans never read or advance the scheduler's clock and never touch any RNG,
so enabling tracing cannot perturb the deterministic simulated runs
(``benchmarks/bench_telemetry.py`` pins this with the golden digest).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar

__all__ = ["Span", "NullSpan", "NULL_SPAN", "Tracer", "TaskScope", "current_span"]

#: The span currently active on this thread (None at top level).  ContextVars
#: default to their initial value in every new thread, so a new thread does
#: not inherit its creator's span by accident.
_ACTIVE_SPAN: ContextVar["Span | None"] = ContextVar("repro_active_span", default=None)

_span_ids = itertools.count(1)


def current_span() -> "Span | None":
    """The span active on the calling thread, or None at top level."""
    return _ACTIVE_SPAN.get()


class Span:
    """One timed, attributed region of work.

    Use as a context manager (``with tracer.span(...)``) for lexically scoped
    regions, or call :meth:`end` explicitly for regions that outlive a single
    call frame (the session keeps one open span per Explore iteration).
    Entering the span activates it on the current thread; ending it restores
    the previous active span and reports the finished record to the tracer's
    sinks.
    """

    __slots__ = (
        "name",
        "category",
        "span_id",
        "parent_id",
        "start",
        "end_time",
        "attributes",
        "thread_name",
        "_tracer",
        "_token",
        "_metric",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        attributes: dict | None = None,
        metric=None,
    ) -> None:
        """Create (but do not yet activate) a span; timing starts immediately."""
        self.name = name
        self.category = category
        self.span_id = next(_span_ids)
        active = _ACTIVE_SPAN.get()
        self.parent_id = active.span_id if active is not None else None
        self.attributes = attributes if attributes else {}
        self.thread_name = threading.current_thread().name
        self._tracer = tracer
        self._token = None
        self._metric = metric
        self.end_time: float | None = None
        self.start = time.perf_counter()

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "Span":
        """Activate the span on the current thread."""
        self._token = _ACTIVE_SPAN.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        """Deactivate and finish the span."""
        self.end()

    def end(self) -> None:
        """Finish the span: stop the clock, deactivate, report to sinks.

        Idempotent — a second call is a no-op, so a span ended explicitly
        inside a ``with`` block is not double-reported.
        """
        if self.end_time is not None:
            return
        self.end_time = time.perf_counter()
        if self._token is not None:
            _ACTIVE_SPAN.reset(self._token)
            self._token = None
        if self._metric is not None:
            self._metric.observe(self.duration)
        self._tracer._finish(self)

    # --------------------------------------------------------------- queries
    @property
    def duration(self) -> float:
        """Elapsed wall seconds (0.0 while the span is still open)."""
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start

    def set_attribute(self, key: str, value) -> "Span":
        """Attach one attribute; returns the span for chaining."""
        self.attributes[key] = value
        return self

    def to_record(self, origin: float) -> dict:
        """JSON-serialisable record of the finished span.

        ``ts``/``dur`` are seconds relative to ``origin`` (the tracer's
        construction time), so records from one run share a common zero.
        """
        return {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "id": self.span_id,
            "parent": self.parent_id,
            "ts": self.start - origin,
            "dur": self.duration,
            "thread": self.thread_name,
            "attrs": self.attributes,
        }

    def __repr__(self) -> str:
        state = "open" if self.end_time is None else f"{self.duration * 1e3:.2f}ms"
        return f"Span({self.name!r}, cat={self.category!r}, id={self.span_id}, {state})"


class NullSpan:
    """No-op span returned by every tracing entry point while disabled.

    A single shared instance stands in for any span, scope, or activation, so
    the disabled fast path allocates nothing.
    """

    __slots__ = ()

    #: Mirror of :attr:`Span.span_id` (None marks the null span).
    span_id = None
    #: Mirror of :attr:`Span.duration`.
    duration = 0.0

    def __enter__(self) -> "NullSpan":
        """No-op activation."""
        return self

    def __exit__(self, *exc_info) -> None:
        """No-op deactivation."""

    def end(self) -> None:
        """No-op finish."""

    def set_attribute(self, key: str, value) -> "NullSpan":
        """Discard the attribute."""
        return self


#: Shared no-op span used whenever telemetry is disabled.
NULL_SPAN = NullSpan()


class Tracer:
    """Creates spans and fans finished ones out to registered sinks."""

    def __init__(self) -> None:
        """Build a tracer; ``origin`` anchors all span timestamps."""
        self.origin = time.perf_counter()
        self._sinks: list = []
        self._lock = threading.Lock()

    def add_sink(self, sink) -> None:
        """Register a sink (an object with ``write_span(record)``)."""
        with self._lock:
            self._sinks.append(sink)

    def span(
        self, name: str, category: str = "app", attributes: dict | None = None, metric=None
    ) -> Span:
        """Open a new span as a child of the thread's active span.

        ``metric`` is an optional histogram whose ``observe`` receives the
        span's duration when it ends, so one call site feeds both the trace
        and the metrics registry.
        """
        return Span(self, name, category, attributes=attributes, metric=metric)

    def activate(self, span: Span | None) -> "_Activation":
        """Context manager making ``span`` the active parent on this thread.

        Used to re-establish a captured creation context, e.g. a task's when
        the scheduler runs it (``span=None`` isolates the thread from any
        leftover context instead).
        """
        return _Activation(span)

    def _finish(self, span: Span) -> None:
        """Report one finished span to every sink (called by ``Span.end``)."""
        with self._lock:
            if not self._sinks:
                return
            record = span.to_record(self.origin)
            for sink in self._sinks:
                sink.write_span(record)


class _Activation:
    """Restores a captured span as the thread's active context."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Span | None) -> None:
        self._span = span
        self._token = None

    def __enter__(self) -> "_Activation":
        self._token = _ACTIVE_SPAN.set(self._span)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _ACTIVE_SPAN.reset(self._token)
            self._token = None


class TaskScope:
    """Combined context for executing one scheduler task.

    Re-activates the context captured when the task was created (so the task
    span parents to the iteration that enqueued it, even windows later)
    and opens a ``task:<kind>`` span in the ``scheduler`` category for the
    execution slice.
    """

    __slots__ = ("_activation", "_span")

    def __init__(self, tracer: Tracer, task, phase: str) -> None:
        """Build the scope for ``task``; ``phase`` labels the execution path
        (``foreground``, ``window``, or ``drain``)."""
        self._activation = _Activation(getattr(task, "trace_context", None))
        self._activation.__enter__()
        try:
            self._span = tracer.span(
                "task:" + task.kind,
                "scheduler",
                attributes={
                    "task_id": task.task_id,
                    "phase": phase,
                    "remaining": task.remaining,
                    "description": task.description,
                },
            )
        except BaseException:
            self._activation.__exit__()
            raise

    def __enter__(self) -> Span:
        """Activate the task span; returns it for attribute updates."""
        return self._span.__enter__()

    def __exit__(self, *exc_info) -> None:
        """Close the task span, then restore the previous context."""
        self._span.__exit__(*exc_info)
        self._activation.__exit__(*exc_info)
