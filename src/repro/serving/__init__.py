"""Multi-session serving layer (ROADMAP item 1).

The paper's system is a single-user exploration loop: one process, one
:class:`~repro.core.api.VOCALExplore` instance.  This package turns it into a
*service* that hosts many named exploration sessions in bounded memory:

* **Protocol** (:mod:`.protocol`): a newline-delimited JSON request/response
  protocol with four SLO-accounted request classes — ``explore``, ``label``,
  ``search``, ``predict`` — plus control operations (``open``, ``finish``,
  ``stats``, ``close``, ``ping``, ``shutdown``).
* **Session manager** (:mod:`.manager`): admission control (max named
  sessions, max resident sessions) and checkpoint-backed LRU eviction.  Each
  session owns private label/model/bandit state over a *shared read-only
  video corpus*; idle sessions are paged to disk with PR 5's
  ``checkpoint()`` and restored bit-identically by ``resume()`` on their next
  request — bounded memory, unbounded sessions.  A *session supervisor*
  quarantines sessions that fail unexpectedly and rolls them back to their
  last durable checkpoint (journal tail re-applied), so one poisoned session
  can neither take down the server nor corrupt its own acked state.
* **Server** (:mod:`.server`): an ``asyncio`` front door that executes
  session work on a worker pool, sheds load beyond a configured queue depth,
  enforces per-request-class deadlines through cooperative scheduler
  preemption, drains gracefully on shutdown, and records every request
  once in the manager's metrics registry — the serving tier's one ledger
  (:func:`repro.telemetry.slo.record_request`).
* **Client** (:mod:`.client`): a thin blocking socket client used by the CLI,
  the tests, and ``benchmarks/bench_serving.py`` — with broken-connection
  tracking, automatic reconnect, jittered-backoff retries, and idempotency
  tokens on ``label`` for exactly-once retried acks.
* **Resilience** (:mod:`.resilience`): the shared policy primitives —
  :class:`~repro.serving.resilience.Deadline` and
  :class:`~repro.serving.resilience.RetryPolicy`.
* **Workload** (:mod:`.workload`): seeded scripted users, retry/fault
  wrapper adapters, and session fingerprints shared by the test suite and
  the serving benchmark.

See ``docs/SERVING.md`` for the protocol reference, lifecycle details, and
the failure-modes-and-recovery matrix.
"""

from __future__ import annotations

from .client import ConnectionBrokenError, RemoteError, ServingClient
from .manager import CorpusSessionFactory, SessionManager
from .protocol import REQUEST_CLASSES, ProtocolError
from .resilience import Deadline, RetryPolicy
from .server import ExploreServer, ServerThread
from .workload import (
    FlakyAdapter,
    LocalSessionAdapter,
    RemoteSessionAdapter,
    RetryingAdapter,
    ScriptedUser,
    session_fingerprint,
)

__all__ = [
    "REQUEST_CLASSES",
    "ProtocolError",
    "ConnectionBrokenError",
    "RemoteError",
    "CorpusSessionFactory",
    "SessionManager",
    "ExploreServer",
    "ServerThread",
    "ServingClient",
    "Deadline",
    "RetryPolicy",
    "FlakyAdapter",
    "LocalSessionAdapter",
    "RemoteSessionAdapter",
    "RetryingAdapter",
    "ScriptedUser",
    "session_fingerprint",
]
