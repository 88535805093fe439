"""Asyncio front door for the multi-session serving layer.

:class:`ExploreServer` listens on a TCP socket, speaks the newline-delimited
JSON protocol (:mod:`.protocol`), and executes session work on a bounded
worker pool so the event loop never blocks on model training or feature
extraction.  Concurrency model:

* the event loop owns connection I/O, framing, admission control, and SLO
  timing;
* session requests run on ``ServingConfig.worker_threads`` pool threads;
  the :class:`~repro.serving.manager.SessionManager` serialises requests
  *per session* while letting distinct sessions run concurrently;
* when in-flight + queued requests exceed ``max_queue_depth`` the server
  sheds load — an :class:`~repro.exceptions.AdmissionError` response is
  returned immediately instead of queuing without bound.

Every SLO-classed request (explore / label / search / predict) is timed from
receipt to response and recorded once, in the session manager's
:class:`~repro.telemetry.metrics.MetricsRegistry`: a bounded latency
histogram plus request, outcome and violation counters per class
(:func:`~repro.telemetry.slo.record_request`).  The ``stats`` operation reads
its per-class p50/p99/p999 roll-up back out of that registry.  One clock,
injectable through the constructor, times each request and starts each
request's :class:`~repro.serving.resilience.Deadline`.

:class:`ServerThread` runs the whole server on a private event loop in a
daemon thread — the test suite, the CLI, and the benchmark all use it to
host a server inside an otherwise synchronous process.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping

import numpy as np

from ..config import ServingConfig
from ..exceptions import (
    AdmissionError,
    DeadlineExceededError,
    ProtocolError,
    ServingError,
    SessionQuarantinedError,
)
from ..telemetry.slo import record_request, request_summary
from ..types import Label
from .manager import SessionManager
from .resilience import Deadline
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    REQUEST_CLASSES,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    request_class,
    validate_request,
)

__all__ = ["ExploreServer", "ServerThread"]

logger = logging.getLogger(__name__)


def _segment_doc(segment) -> dict:
    """Serialise one predicted video segment for the wire."""
    prediction = segment.prediction
    return {
        "vid": segment.clip.vid,
        "start": segment.clip.start,
        "end": segment.clip.end,
        "prediction": None
        if prediction is None
        else {
            "top_label": prediction.top_label,
            "top_probability": prediction.top_probability,
            "probabilities": {
                name: float(p) for name, p in sorted(prediction.probabilities.items())
            },
            "feature": prediction.feature_name,
            "model_version": prediction.model_version,
        },
    }


def _require_number(doc: Mapping[str, Any], key: str) -> float:
    value = doc.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"field {key!r} must be a number, got {value!r}")
    return float(value)


def _optional_int(doc: Mapping[str, Any], key: str) -> int | None:
    value = doc.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _parse_labels(doc: Mapping[str, Any]) -> list[Label]:
    raw = doc.get("labels")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("field 'labels' must be a non-empty list")
    labels = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ProtocolError(f"label entries must be objects, got {entry!r}")
        try:
            labels.append(
                Label(
                    vid=int(entry["vid"]),
                    start=float(entry["start"]),
                    end=float(entry["end"]),
                    label=str(entry["label"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed label entry {entry!r}: {exc}") from exc
    return labels


class ExploreServer:
    """Serves many exploration sessions over newline-delimited JSON."""

    def __init__(
        self,
        manager: SessionManager,
        config: ServingConfig | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        """Create a server over one session manager.

        Args:
            manager: Hosts the sessions (admission, LRU eviction, restore);
                its metrics registry is the server's only request ledger.
            config: Listen address, worker pool, queue depth, SLO budgets.
            clock: Monotonic seconds; times each request and starts each
                request's deadline (injectable for tests).
        """
        self.manager = manager
        self.config = config if config is not None else ServingConfig()
        self.metrics = manager.metrics
        self._clock = clock
        self._budgets = self.config.budgets()
        self._deadlines = self.config.deadlines()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.worker_threads, thread_name_prefix="serving"
        )
        self._server: asyncio.base_events.Server | None = None
        self._stopping: asyncio.Event | None = None
        self._draining = False
        self._inflight = 0
        self.host: str | None = None
        self.port: int | None = None

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES + 2,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        logger.info("serving on %s:%d", self.host, self.port)
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_stop`) arrives,
        then *drain*: stop accepting connections, shed new requests with
        :class:`~repro.exceptions.AdmissionError`, let in-flight requests
        finish (bounded by ``ServingConfig.drain_timeout_s``), then
        checkpoint every resident session and close the manager, so a
        restarted server recovers all of them.
        """
        if self._stopping is None:
            raise ServingError("serve_until_stopped() requires start() first")
        await self._stopping.wait()
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        drain_until = loop.time() + self.config.drain_timeout_s
        while self._inflight > 0 and loop.time() < drain_until:
            await asyncio.sleep(0.01)
        if self._inflight:
            logger.warning(
                "drain timeout after %.1fs: %d requests still in flight",
                self.config.drain_timeout_s,
                self._inflight,
            )
        await loop.run_in_executor(self._executor, self.manager.close)
        self._executor.shutdown(wait=True)
        logger.info("server stopped; sessions checkpointed")

    def request_stop(self) -> None:
        """Signal :meth:`serve_until_stopped` to begin graceful shutdown."""
        if self._stopping is not None:
            self._stopping.set()

    @property
    def stop_requested(self) -> bool:
        """True once a graceful shutdown has been signalled."""
        return self._stopping is not None and self._stopping.is_set()

    # --------------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized frame: the line boundary is lost, so the
                    # connection cannot be resynchronised — but the typed
                    # error must reach the peer *before* the drop, so it can
                    # distinguish "my frame was too big" from a network
                    # failure.  Hence the explicit drain before breaking.
                    self.metrics.counter("serving.protocol_errors").add(1)
                    writer.write(
                        encode_message(
                            error_response(
                                None,
                                ProtocolError(
                                    f"frame exceeds {MAX_LINE_BYTES} bytes; "
                                    "closing connection (framing lost)"
                                ),
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line.strip():
                    if not line:
                        break  # EOF
                    continue
                response, stop_after = await self._serve_request(loop, line)
                writer.write(encode_message(response))
                await writer.drain()
                if stop_after:
                    self.request_stop()
                    break
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve_request(
        self, loop: asyncio.AbstractEventLoop, line: bytes
    ) -> tuple[dict, bool]:
        """Decode, admit, execute, and account one request line."""
        request_id: Any = None
        try:
            doc = decode_line(line)
            request_id = doc.get("id")
            op, _session = validate_request(doc)
        except ProtocolError as exc:
            self.metrics.counter("serving.protocol_errors").add(1)
            return error_response(request_id, exc), False

        if self._draining:
            self.metrics.counter("serving.requests_shed").add(1)
            return (
                error_response(
                    request_id,
                    AdmissionError(
                        "server is draining for shutdown; no new requests accepted"
                    ),
                ),
                False,
            )
        if self._inflight >= self.config.max_queue_depth:
            self.metrics.counter("serving.requests_shed").add(1)
            return (
                error_response(
                    request_id,
                    AdmissionError(
                        f"server overloaded: {self._inflight} requests in flight "
                        f"(queue depth {self.config.max_queue_depth}); retry later"
                    ),
                ),
                False,
            )

        slo_class = request_class(op)
        budget = self._deadlines.get(slo_class) if slo_class is not None else None
        deadline = (
            Deadline(budget, request_class=slo_class, clock=self._clock)
            if budget is not None
            else None
        )
        started = self._clock()
        self._inflight += 1
        outcome = "ok"
        try:
            result = await loop.run_in_executor(
                self._executor, self._execute, op, doc, deadline
            )
            response = ok_response(request_id, result)
        except Exception as exc:  # error responses, not connection teardown
            self.metrics.counter("serving.request_errors").add(1)
            if isinstance(exc, DeadlineExceededError):
                outcome = "deadline"
            elif isinstance(exc, SessionQuarantinedError):
                outcome = "quarantine"
            else:
                outcome = "error"
            response = error_response(request_id, exc)
        finally:
            self._inflight -= 1

        if slo_class is not None:
            elapsed = self._clock() - started
            record_request(self.metrics, slo_class, elapsed, self._budgets.get(slo_class), outcome)
        return response, op == "shutdown" and response.get("ok", False)

    def slo_summary(self) -> dict:
        """Per-request-class SLO roll-up (the ``stats`` reply's ``slo`` block)."""
        return request_summary(self.metrics, REQUEST_CLASSES, self._budgets)

    # ----------------------------------------------------------------- dispatch
    def _execute(
        self, op: str, doc: Mapping[str, Any], deadline: Deadline | None = None
    ) -> dict:
        """Execute one validated request on a worker thread.

        Session-scoped data-plane work runs under the manager's supervisor
        (quarantine + rollback on unexpected failures) with the request's
        deadline installed as the session scheduler's preemption gate, so a
        late request parks cooperatively at the next dispatch boundary
        instead of occupying the worker to completion.
        """
        if op == "ping":
            return {"pong": True, "version": PROTOCOL_VERSION}
        if op == "stats":
            return {"manager": self.manager.stats(), "slo": self.slo_summary()}
        if op == "shutdown":
            return {"stopping": True}

        name = doc["session"]
        if op == "open":
            return self.manager.open(name)
        if op == "close":
            with self.manager.supervised(name, create=False) as vocal:
                if vocal.session.iteration_open:
                    vocal.finish_iteration()
            self.manager.evict(name)
            return {"closed": name}

        if deadline is not None:
            # Fast-fail before pinning the session: a request that queued
            # past its whole budget never occupies the session lock.
            deadline.check()
        with self.manager.supervised(name, create=False) as vocal:
            scheduler = vocal.session.scheduler
            if deadline is not None:
                scheduler.preemption_gate = deadline.check
            try:
                if op == "explore":
                    return self._execute_explore(vocal, doc)
                if op == "label":
                    return self._execute_label(vocal, doc, name)
                if op == "finish":
                    summary = vocal.finish_iteration()
                    return self._summary_doc(summary)
                if op == "search":
                    return self._execute_search(vocal, doc)
                if op == "predict":
                    segments = vocal.watch(
                        int(_require_number(doc, "vid")),
                        _require_number(doc, "start"),
                        _require_number(doc, "end"),
                    )
                    return {"segments": [_segment_doc(segment) for segment in segments]}
            finally:
                scheduler.preemption_gate = None
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover - validate_request gates

    @staticmethod
    def _summary_doc(summary) -> dict:
        return {
            "iteration": summary.iteration,
            "acquisition": summary.acquisition,
            "feature": summary.feature_name,
            "labels_total": summary.num_labels_total,
            "visible_latency_s": summary.visible_latency,
        }

    def _execute_explore(self, vocal, doc: Mapping[str, Any]) -> dict:
        batch_size = _optional_int(doc, "batch_size")
        clip_duration = doc.get("clip_duration")
        if clip_duration is not None:
            clip_duration = _require_number(doc, "clip_duration")
        target = doc.get("label")
        if target is not None and not isinstance(target, str):
            raise ProtocolError(f"field 'label' must be a string, got {target!r}")
        result = vocal.explore(batch_size, clip_duration, target)
        return {
            "iteration": result.iteration,
            "acquisition": result.acquisition,
            "feature": result.feature_name,
            "visible_latency_s": result.visible_latency,
            "segments": [_segment_doc(segment) for segment in result.segments],
        }

    def _execute_label(self, vocal, doc: Mapping[str, Any], name: str) -> dict:
        token = doc.get("token")
        if token is not None:
            cached = self.manager.idempotency_get(name, token)
            if cached is not None:
                # A retried ack: the labels were applied (and journaled) by
                # the original attempt whose response was lost — replay the
                # cached ack instead of double-applying.  Runs under the
                # session lock, so duplicate tokens are serialised.
                self.metrics.counter("serving.label_replays").add(1)
                return {**cached, "replayed": True}
        labels = _parse_labels(doc)
        vocal.session.add_labels(labels)
        finished = False
        if doc.get("finish") and vocal.session.iteration_open:
            vocal.finish_iteration()
            finished = True
        # With per-session checkpoint directories always configured, the
        # labels are journaled + fsynced when add_labels returns: this ack
        # means durable.
        ack = {"stored": len(labels), "durable": True, "finished": finished}
        if token is not None:
            self.manager.idempotency_put(name, token, ack)
        return ack

    def _execute_search(self, vocal, doc: Mapping[str, Any]) -> dict:
        if "vector" in doc:
            query: Any = np.asarray(doc["vector"], dtype=np.float64)
        else:
            query = (
                int(_require_number(doc, "vid")),
                _require_number(doc, "start"),
                _require_number(doc, "end"),
            )
        k = _optional_int(doc, "k") or 10
        feature = doc.get("feature")
        if feature is not None and not isinstance(feature, str):
            raise ProtocolError(f"field 'feature' must be a string, got {feature!r}")
        hits = vocal.search(query, k=k, feature_name=feature)
        return {
            "hits": [
                {
                    "vid": hit.vid,
                    "start": hit.start,
                    "end": hit.end,
                    "distance": hit.distance,
                }
                for hit in hits
            ]
        }


class ServerThread:
    """Runs an :class:`ExploreServer` on a private event loop in a thread.

    Lets synchronous callers (tests, the benchmark, the CLI's foreground
    mode) host a server without owning an asyncio loop themselves::

        thread = ServerThread(manager, config)
        host, port = thread.start()
        ...  # drive it with ServingClient
        thread.stop()
    """

    def __init__(
        self,
        manager: SessionManager,
        config: ServingConfig | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.server = ExploreServer(manager, config, clock)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        """Start the loop thread; returns the bound ``(host, port)``.

        Raises:
            ServingError: when the server fails to bind within ``timeout``.
        """
        self._thread = threading.Thread(
            target=self._run, name="serving-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServingError("server did not start in time")
        if self._startup_error is not None:
            raise ServingError(f"server failed to start: {self._startup_error}")
        return self.server.host, self.server.port

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:  # surface bind errors to start()
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_until_stopped()

        asyncio.run(main())

    def _hung_error(self, timeout: float) -> ServingError:
        """Build the loud-shutdown error (logs the resident-session count).

        Reads the resident dict without the manager lock on purpose: the
        hung loop thread may be holding it, and this path must never block.
        """
        resident = len(self.server.manager._resident)
        logger.error(
            "server thread failed to stop within %.1fs (%d resident sessions)",
            timeout,
            resident,
        )
        return ServingError(
            f"server thread failed to stop within {timeout}s "
            f"({resident} resident sessions may not be checkpointed)"
        )

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server stops on its own (a ``shutdown`` request);
        returns True when it has stopped, False on timeout.

        Raises:
            ServingError: when a stop *was* requested (a ``shutdown`` request
                or :meth:`stop`) and the thread still failed to die within
                ``timeout`` — a hung shutdown must be loud, not a silent
                False that callers ignore.
        """
        if self._thread is None:
            return True
        self._thread.join(timeout)
        if self._thread.is_alive():
            if self.server.stop_requested:
                raise self._hung_error(timeout if timeout is not None else 0.0)
            return False
        return True

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join the loop thread (idempotent).

        Raises:
            ServingError: when the loop thread fails to join within
                ``timeout``; resident sessions may not have been
                checkpointed, so the failure is never silent.
        """
        if self._thread is None:
            return
        thread = self._thread
        if self._loop is not None and thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        thread.join(timeout)
        if thread.is_alive():
            raise self._hung_error(timeout)
        self._thread = None
