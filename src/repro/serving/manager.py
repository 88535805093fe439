"""Session hosting: admission control and checkpoint-backed LRU eviction.

:class:`SessionManager` turns the single-session library into a multi-tenant
host.  Each named session is a full :class:`~repro.core.api.VOCALExplore`
instance with its *own* label store, model registry, feature shards, bandit,
and scheduler — complete namespace isolation — built by a
:class:`CorpusSessionFactory` that shares one read-only
:class:`~repro.video.corpus.VideoCorpus` (the heavy, common data) across all
of them.

Memory is bounded by ``max_resident``: when admitting or restoring a session
would exceed it, the least-recently-used idle session is *evicted* — its full
state is written as an atomic snapshot generation through PR 5's
``checkpoint()`` and the in-memory instance is released.  The next request
for that session rebuilds it from the factory and ``resume()``\\ s the
snapshot, which PR 5 guarantees is bit-identical (labels, model parameters,
latency records, RNG streams).  Sessions mid-iteration (between ``explore``
and ``finish``) are never auto-evicted: checkpoints require a closed
iteration, and skipping them keeps the evict/restore cycle invisible to
clients.  When *everything* resident is pinned or mid-iteration the manager
either overshoots the cap (default) or, with ``max_overshoot`` set, sheds
the admission with :class:`AdmissionError` once the hard residency bound is
hit — trading latency (the client retries) for a memory ceiling.

The manager is synchronous and thread-safe: the asyncio server calls it from
worker threads, and the test suite drives it directly without a server.
Bookkeeping runs under one manager lock; session *work* runs outside it,
holding only that session's lock, so distinct sessions execute concurrently
while each session's requests stay strictly ordered.
"""

from __future__ import annotations

import itertools
import logging
import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from ..config import VocalExploreConfig
from ..core.api import VOCALExplore
from ..exceptions import (
    AdmissionError,
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    ServingError,
    SessionNotFoundError,
    SessionQuarantinedError,
)
from ..telemetry.metrics import MetricsRegistry
from .protocol import valid_session_name

__all__ = ["CorpusSessionFactory", "SessionManager", "ResidentSession"]

logger = logging.getLogger(__name__)


class CorpusSessionFactory:
    """Builds per-session ``VOCALExplore`` instances over one shared corpus.

    Every session shares the factory's read-only video corpus, vocabulary,
    and feature-quality map, but receives private stores and a private,
    name-derived seed, so two sessions with the same request script still
    explore independently.  The factory forces the configuration invariants
    eviction depends on: the deterministic simulated engine, a per-session
    checkpoint directory under ``root``, and telemetry off (sessions share
    the process, and the telemetry facade is process-global).
    """

    def __init__(
        self,
        dataset,
        root: str | Path,
        config: VocalExploreConfig | None = None,
        base_seed: int = 0,
        candidate_features: Sequence[str] | None = None,
    ) -> None:
        """Create a factory.

        Args:
            dataset: A :class:`repro.datasets.synthetic.Dataset` whose
                ``train_corpus`` is shared read-only by every session.
            root: Directory holding one subdirectory per session (its
                durable checkpoint state).
            config: Base configuration applied to every session; the
                scheduler section's engine/checkpoint fields are overridden
                per session.  Must not request a telemetry run.
            base_seed: Folded with the session name into each session's seed.
            candidate_features: Candidate extractors per session (None = all).

        Raises:
            ServingError: when ``config`` requests an active telemetry run.
        """
        self.dataset = dataset
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        config = config if config is not None else VocalExploreConfig()
        if config.telemetry.active:
            raise ServingError(
                "serving sessions cannot run per-session telemetry (the "
                "telemetry facade is process-global); configure SLO "
                "accounting on the server instead"
            )
        self.config = config
        self.base_seed = int(base_seed)
        self.candidate_features = (
            list(candidate_features) if candidate_features is not None else None
        )

    # ------------------------------------------------------------------ layout
    def session_dir(self, name: str) -> Path:
        """Directory holding one session's durable state."""
        if not valid_session_name(name):
            raise ServingError(f"illegal session name {name!r}")
        return self.root / name

    def exists(self, name: str) -> bool:
        """True when the session has durable state on disk."""
        return self.session_dir(name).is_dir()

    def list_sessions(self) -> list[str]:
        """Names of every session with durable state, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and valid_session_name(entry.name)
        )

    def session_seed(self, name: str) -> int:
        """Deterministic per-session seed (stable across process restarts)."""
        return zlib.crc32(f"{self.base_seed}:{name}".encode("utf-8")) & 0x7FFFFFFF

    # ------------------------------------------------------------------- build
    def build(self, name: str) -> VOCALExplore:
        """Assemble a fresh session instance for ``name`` (no resume)."""
        checkpoint_dir = self.session_dir(name) / "checkpoint"
        config = self.config.with_updates(
            scheduler=replace(
                self.config.scheduler,
                engine="simulated",
                checkpoint_dir=str(checkpoint_dir),
                checkpoint_every=0,
            ),
            seed=self.session_seed(name),
        )
        return VOCALExplore.for_corpus(
            self.dataset.train_corpus,
            vocabulary=self.dataset.class_names,
            feature_qualities=self.dataset.feature_qualities,
            config=config,
            candidate_features=self.candidate_features,
        )


class ResidentSession:
    """Bookkeeping for one in-memory session."""

    __slots__ = ("name", "vocal", "lock", "pins", "last_used", "requests", "poisoned")

    def __init__(self, name: str, vocal: VOCALExplore) -> None:
        self.name = name
        self.vocal = vocal
        #: Serialises work on this session; held only outside the manager lock.
        self.lock = threading.Lock()
        #: Threads inside (or queued on) :meth:`SessionManager.acquire`.
        self.pins = 0
        #: Logical LRU timestamp (monotonic use counter, not wall time).
        self.last_used = 0
        #: Requests served by this resident instance.
        self.requests = 0
        #: Set when a supervised rollback itself failed.  The rollback has
        #: already closed ``vocal``, so the manager never reads it again and
        #: never checkpoints it (the durable state on disk is the recovery
        #: point).  Requests queued on the entry are refused, and the entry
        #: is dropped and rebuilt from disk once unpinned.
        self.poisoned = False


class SessionManager:
    """Hosts many named sessions in bounded memory (LRU + checkpoints)."""

    def __init__(
        self,
        factory: CorpusSessionFactory,
        max_resident: int = 8,
        max_sessions: int = 0,
        max_overshoot: int | None = None,
    ) -> None:
        """Create a manager.

        Args:
            factory: Builds (and rebuilds, for restores) session instances.
            max_resident: Sessions kept in memory at once (>= 1); admitting
                one more evicts the least-recently-used idle session first.
            max_sessions: Total named sessions admitted, resident or paged
                out (0 = unbounded).
            max_overshoot: Extra residents tolerated when nothing is
                evictable (every resident session pinned or mid-iteration).
                ``None`` (default) admits unboundedly in that case; an
                integer makes ``max_resident + max_overshoot`` a *hard*
                residency cap past which admission sheds with
                :class:`AdmissionError` — backpressure instead of memory
                growth.  Safe to retry: a mid-iteration session is always
                resident, so the request that closes its iteration is never
                shed, and closing it frees an eviction candidate.
        """
        if max_resident < 1:
            raise ServingError(f"max_resident must be >= 1, got {max_resident}")
        if max_sessions < 0:
            raise ServingError(f"max_sessions must be >= 0, got {max_sessions}")
        if max_overshoot is not None and max_overshoot < 0:
            raise ServingError(f"max_overshoot must be >= 0, got {max_overshoot}")
        self.factory = factory
        self.max_resident = int(max_resident)
        self.max_sessions = int(max_sessions)
        self.max_overshoot = None if max_overshoot is None else int(max_overshoot)
        #: The serving ledger: lifecycle counters here, and the server's
        #: per-request latency histograms and counters.
        self.metrics = MetricsRegistry()
        self._resident: dict[str, ResidentSession] = {}
        self._lock = threading.Lock()
        self._use_counter = itertools.count(1)
        self._closed = False
        # Idempotency-token registry for exactly-once label application.
        # Keyed at the manager (not the resident entry) so cached acks
        # survive eviction; a dedicated leaf lock keeps the registry out of
        # the `_lock -> entry.lock` ordering entirely.
        self._idem_lock = threading.Lock()
        self._idempotency: dict[str, OrderedDict[str, dict]] = {}
        self._idempotency_cache_size = 256

    # --------------------------------------------------------------- admission
    def _admit_locked(self, name: str, create: bool) -> None:
        """Admit a known session; admit a new one only under ``max_sessions``.

        Only the create path lists the session root (a directory scan plus a
        stat per session); a known name costs one ``exists`` check.
        """
        if name in self._resident or self.factory.exists(name):
            return
        if not create:
            raise SessionNotFoundError(f"session {name!r} does not exist")
        if self.max_sessions:
            known = set(self.factory.list_sessions()) | set(self._resident)
            if len(known) >= self.max_sessions:
                raise AdmissionError(
                    f"session limit reached ({self.max_sessions}); "
                    f"cannot admit new session {name!r}"
                )

    def open(self, name: str) -> dict:
        """Admit (creating or restoring) a session; returns its summary.

        Raises:
            AdmissionError: when ``max_sessions`` is reached and ``name`` is new.
            ServingError: on an illegal session name or a closed manager.
        """
        with self.acquire(name) as vocal:
            return {
                "session": name,
                "iteration": vocal.session.iteration,
                "labels": len(vocal.session.storage.labels),
                "seed": self.factory.session_seed(name),
            }

    # ------------------------------------------------------------------ hosting
    @contextmanager
    def _pinned(self, name: str, create: bool) -> Iterator[ResidentSession]:
        """Pin a session's resident entry and yield it under its lock."""
        if not valid_session_name(name):
            raise ServingError(f"illegal session name {name!r}")
        with self._lock:
            if self._closed:
                raise ServingError("session manager is closed")
            self._admit_locked(name, create)
            entry = self._ensure_resident_locked(name)
            entry.pins += 1
        try:
            with entry.lock:
                if entry.poisoned:
                    # A rollback failed while this request was queued on the
                    # entry; the instance is untrusted and will be rebuilt
                    # from disk once every queued request has drained.
                    raise SessionQuarantinedError(
                        f"session {name!r} is quarantined (rollback failed); "
                        "it will be rebuilt from its last checkpoint — retry"
                    )
                entry.requests += 1
                yield entry
        finally:
            with self._lock:
                entry.pins -= 1
                entry.last_used = next(self._use_counter)

    @contextmanager
    def acquire(self, name: str, create: bool = True) -> Iterator[VOCALExplore]:
        """Pin a session into memory and yield it, serialised per session.

        Restores the session from its checkpoint when it was evicted (or
        survives from a previous process), evicting the LRU idle session
        first when at capacity.  Work inside the ``with`` block holds only
        this session's lock, so distinct sessions run concurrently.
        """
        with self._pinned(name, create) as entry:
            yield entry.vocal

    #: Error types the supervisor re-raises untouched: expected request-level
    #: failures that never indicate a corrupted session.
    _PASSTHROUGH_ERRORS = (
        AdmissionError,
        SessionNotFoundError,
        ProtocolError,
        SessionQuarantinedError,
    )

    @staticmethod
    def _state_probe(vocal: VOCALExplore) -> tuple:
        """Cheap fingerprint of the mutable session state a request touches.

        An exact :func:`~repro.serving.workload.session_fingerprint` is too
        expensive per request; this probe catches every mutation the serving
        ops can make (iteration counters, stored labels, finished summaries,
        charged latency) so a failed request that changed *nothing* can be
        passed through without a rollback.
        """
        session = vocal.session
        return (
            session.iteration,
            session.iteration_open,
            len(session.storage.labels),
            len(session._summaries),
            vocal.cumulative_visible_latency(),
        )

    @contextmanager
    def supervised(self, name: str, create: bool = True) -> Iterator[VOCALExplore]:
        """Like :meth:`acquire`, with a supervisor around the session work.

        Classifies failures escaping the ``with`` block:

        * *expected* errors (admission, unknown session, protocol) pass
          through untouched — they never indicate session corruption;
        * a :class:`~repro.exceptions.DeadlineExceededError` passes through
          typed, after rolling the session back when the cancelled work had
          already mutated state (a deadline parked at a boundary before any
          mutation needs no rollback).  Such a rollback counts under
          ``deadline_rollbacks``, not ``quarantines``: the session is healthy;
        * a :class:`~repro.exceptions.ReproError` that left the state probe
          unchanged passes through (a clean pre-mutation failure, e.g.
          finishing an iteration that is not open);
        * anything else quarantines the session: it is rolled back to its
          last durable checkpoint (re-applying the journal tail, so no acked
          label is lost) and the caller receives a
          :class:`~repro.exceptions.SessionQuarantinedError` carrying the
          recovery report, chained from the original failure.
        """
        with self._pinned(name, create) as entry:
            probe = self._state_probe(entry.vocal)
            try:
                yield entry.vocal
            except self._PASSTHROUGH_ERRORS:
                raise
            except DeadlineExceededError:
                if self._state_probe(entry.vocal) != probe:
                    self._rollback(
                        entry, "deadline cancelled mid-mutation", "serving.deadline_rollbacks"
                    )
                raise
            except ReproError as exc:
                if self._state_probe(entry.vocal) == probe:
                    raise
                report = self._rollback(entry, f"{type(exc).__name__}: {exc}")
                raise SessionQuarantinedError(report) from exc
            except Exception as exc:
                report = self._rollback(entry, f"{type(exc).__name__}: {exc}")
                raise SessionQuarantinedError(report) from exc

    def _rollback(
        self,
        entry: ResidentSession,
        cause: str,
        counter: str = "serving.session_quarantines",
    ) -> str:
        """Replace a suspect instance with one rebuilt from durable state.

        ``counter`` says why: a quarantine (the default), or a typed deadline
        that cancelled work mid-mutation (``serving.deadline_rollbacks``; the
        session is healthy, so it is counted apart).  A rollback that fails
        ends the request as a quarantine, so it also counts under
        ``serving.session_quarantines`` whatever ``counter`` was.  Runs
        holding only ``entry.lock``.  The old instance is closed first
        (best-effort — it releases the journal handle so the rebuilt one is
        the only writer), then the factory rebuilds the session and
        ``resume()`` restores the last snapshot plus the acked journal tail,
        bit-identically.  Returns a recovery report string; when the
        rollback itself fails, the entry is *poisoned* — its state is never
        checkpointed again and the instance is discarded and rebuilt from
        disk on a later request.  Never touches the manager lock (lock order is ``_lock`` before
        ``entry.lock``).
        """
        self.metrics.counter(counter).add(1)
        logger.warning("session %s rolled back: %s", entry.name, cause)
        try:
            entry.vocal.close()
        except Exception:
            logger.exception("session %s: closing the failed instance failed", entry.name)
        try:
            fresh = self.factory.build(entry.name)
            report = self._restore(entry.name, fresh)
        except Exception as rollback_exc:
            entry.poisoned = True
            self.metrics.counter("serving.session_rollback_failures").add(1)
            if counter != "serving.session_quarantines":
                self.metrics.counter("serving.session_quarantines").add(1)
            logger.exception("session %s: rollback failed; entry poisoned", entry.name)
            raise SessionQuarantinedError(
                f"session {entry.name!r} quarantined after: {cause}; the "
                f"rollback itself failed "
                f"({type(rollback_exc).__name__}: {rollback_exc}) — the "
                "instance is poisoned and will be rebuilt from its last "
                "durable checkpoint on a later request; retry"
            ) from rollback_exc
        entry.vocal = fresh
        self.metrics.counter("serving.session_rollbacks").add(1)
        session = fresh.session
        return (
            f"session {entry.name!r} quarantined after: {cause}; rolled back to "
            f"its last durable state (iteration {session.iteration}, "
            f"{len(session.storage.labels)} labels, "
            f"{len(report.tail_labels)} journal-tail labels re-applied) — "
            "no acknowledged label was lost; retry the request"
        )

    # -------------------------------------------------------------- idempotency
    def idempotency_get(self, name: str, token: str) -> dict | None:
        """Cached ack for a ``(session, token)`` pair, or None when unseen."""
        with self._idem_lock:
            cache = self._idempotency.get(name)
            if cache is None:
                return None
            doc = cache.get(token)
            if doc is None:
                return None
            cache.move_to_end(token)
            return dict(doc)

    def idempotency_put(self, name: str, token: str, ack: Mapping[str, Any]) -> None:
        """Cache the ack for a ``(session, token)`` pair (per-session LRU).

        Keyed at the manager so replay detection survives eviction and
        restore; it does not survive a server restart (a retried label after
        a crash is re-applied, which the durable journal already handles).
        """
        with self._idem_lock:
            cache = self._idempotency.setdefault(name, OrderedDict())
            cache[token] = dict(ack)
            cache.move_to_end(token)
            while len(cache) > self._idempotency_cache_size:
                cache.popitem(last=False)

    def _ensure_resident_locked(self, name: str) -> ResidentSession:
        entry = self._resident.get(name)
        if entry is not None:
            if entry.poisoned and entry.pins == 0:
                # Every request queued on the poisoned instance has drained:
                # discard it (never checkpointing its untrusted state) and
                # rebuild from the durable state on disk.
                self._discard_locked(entry)
                entry = None
            else:
                return entry
        self._make_room_locked()
        existed = self.factory.exists(name)
        vocal = self.factory.build(name)
        if existed:
            self._restore(name, vocal)
            self.metrics.counter("serving.session_restores").add(1)
        else:
            self.metrics.counter("serving.session_creates").add(1)
        entry = ResidentSession(name, vocal)
        entry.last_used = next(self._use_counter)
        self._resident[name] = entry
        self.metrics.gauge("serving.resident_sessions").set(len(self._resident))
        return entry

    def _restore(self, name: str, vocal: VOCALExplore):
        """Resume a rebuilt session and fold in any durable journal tail.

        The clean eviction path checkpoints first, so its tail is empty and
        the restore is PR 5's bit-identical resume.  After a *crash* the
        journal may hold labels acknowledged past the last snapshot; unlike
        the single-user driver (which re-executes those iterations
        deterministically), a serving client will not resend them, so they
        are re-applied here and immediately re-checkpointed — rolling the
        journal so a later recovery cannot double-apply them.  Returns the
        :class:`~repro.core.api.RecoveryReport` for the caller's logs.  When
        the restore raises, ``vocal`` is closed before the error propagates,
        so the unusable instance releases its journal handle and is freed at
        once.
        """
        try:
            report = vocal.resume()
            if report.tail_labels:
                vocal.session.add_labels(report.tail_labels)
                vocal.checkpoint()
                self.metrics.counter("serving.recovered_tail_labels").add(
                    len(report.tail_labels)
                )
                logger.warning(
                    "session %s: re-applied %d durable labels from the journal tail",
                    name,
                    len(report.tail_labels),
                )
        except BaseException:
            try:
                vocal.close()
            except Exception:
                logger.exception("session %s: closing the unrestored instance failed", name)
            raise
        return report

    # ----------------------------------------------------------------- eviction
    def _evictable_locked(self) -> ResidentSession | None:
        # Poisoned entries are dead weight (their state is untrusted and the
        # recovery point is on disk), so an unpinned one is always the first
        # eviction candidate regardless of its apparent iteration state.
        candidates = [
            entry
            for entry in self._resident.values()
            if entry.pins == 0
            and (entry.poisoned or not entry.vocal.session.iteration_open)
        ]
        if not candidates:
            return None
        return min(
            candidates, key=lambda entry: (not entry.poisoned, entry.last_used)
        )

    def _make_room_locked(self) -> None:
        while len(self._resident) >= self.max_resident:
            victim = self._evictable_locked()
            if victim is None:
                # Every resident session is pinned or mid-iteration.  Past
                # the overshoot allowance the residency cap is hard: shed
                # the admission and let the client retry once an iteration
                # closes (mid-iteration sessions stay resident, so the step
                # that closes one is never shed — no livelock).
                if (
                    self.max_overshoot is not None
                    and len(self._resident) >= self.max_resident + self.max_overshoot
                ):
                    self.metrics.counter("serving.residency_sheds").add(1)
                    raise AdmissionError(
                        f"no evictable session (resident={len(self._resident)}, "
                        f"cap={self.max_resident}+{self.max_overshoot} overshoot); "
                        "retry later"
                    )
                # Otherwise admit anyway (temporary overshoot) rather than
                # deadlock — the next idle boundary brings the count back
                # under the cap.
                self.metrics.counter("serving.eviction_overshoots").add(1)
                logger.warning(
                    "no evictable session (resident=%d, cap=%d); overshooting",
                    len(self._resident),
                    self.max_resident,
                )
                return
            self._evict_locked(victim)

    def _discard_locked(self, entry: ResidentSession) -> None:
        """Drop a poisoned entry (its instance is already closed) unsaved."""
        del self._resident[entry.name]
        self.metrics.counter("serving.session_discards").add(1)
        self.metrics.gauge("serving.resident_sessions").set(len(self._resident))
        logger.warning("discarded poisoned session %s (durable state intact)", entry.name)

    def _evict_locked(self, entry: ResidentSession) -> None:
        if entry.poisoned:
            # Never checkpoint untrusted state over the durable recovery
            # point — discarding is the eviction for a poisoned entry.
            self._discard_locked(entry)
            return
        entry.vocal.checkpoint()
        entry.vocal.close()
        del self._resident[entry.name]
        self.metrics.counter("serving.session_evictions").add(1)
        self.metrics.gauge("serving.resident_sessions").set(len(self._resident))
        logger.info("evicted session %s to disk", entry.name)

    def evict(self, name: str) -> None:
        """Explicitly page one idle session to disk.

        Raises:
            SessionNotFoundError: when the session is not resident.
            ServingError: when the session is pinned by an in-flight request
                or sits mid-iteration (labels outstanding).
        """
        with self._lock:
            entry = self._resident.get(name)
            if entry is None:
                raise SessionNotFoundError(f"session {name!r} is not resident")
            if entry.pins > 0:
                raise ServingError(f"session {name!r} has in-flight requests")
            if not entry.poisoned and entry.vocal.session.iteration_open:
                raise ServingError(
                    f"session {name!r} is mid-iteration; finish it before evicting"
                )
            self._evict_locked(entry)

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Checkpoint and release every resident session (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for entry in list(self._resident.values()):
                with entry.lock:
                    if entry.poisoned:
                        continue
                    if entry.vocal.session.iteration_open:
                        entry.vocal.finish_iteration()
                    entry.vocal.checkpoint()
                    entry.vocal.close()
            self._resident.clear()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ queries
    def is_resident(self, name: str) -> bool:
        """True when the session is currently in memory."""
        with self._lock:
            return name in self._resident

    def resident_sessions(self) -> list[str]:
        """Names of the sessions currently in memory, LRU first."""
        with self._lock:
            return [
                entry.name
                for entry in sorted(self._resident.values(), key=lambda e: e.last_used)
            ]

    #: ``stats()`` key -> the registry counter it reads.
    _STATS_COUNTERS = {
        "creates": "serving.session_creates",
        "restores": "serving.session_restores",
        "evictions": "serving.session_evictions",
        "eviction_overshoots": "serving.eviction_overshoots",
        "residency_sheds": "serving.residency_sheds",
        "recovered_tail_labels": "serving.recovered_tail_labels",
        "quarantines": "serving.session_quarantines",
        "deadline_rollbacks": "serving.deadline_rollbacks",
        "rollbacks": "serving.session_rollbacks",
        "rollback_failures": "serving.session_rollback_failures",
    }

    @staticmethod
    def _entry_stats(entry: ResidentSession) -> dict:
        if entry.poisoned:
            # The instance is closed; only the manager's own bookkeeping is left.
            return {
                "session": entry.name,
                "poisoned": True,
                "pinned": entry.pins,
                "requests": entry.requests,
            }
        session = entry.vocal.session
        return {
            "session": entry.name,
            "iteration": session.iteration,
            "labels": len(session.storage.labels),
            "pinned": entry.pins,
            "requests": entry.requests,
            "iteration_open": session.iteration_open,
        }

    def stats(self) -> dict:
        """Lifecycle counters from :attr:`metrics` and per-resident-session detail.

        A poisoned entry is listed with ``"poisoned": True`` and without the
        iteration and label fields: its instance is closed.
        """
        with self._lock:
            resident = [
                self._entry_stats(entry)
                for entry in sorted(self._resident.values(), key=lambda e: e.last_used)
            ]
            return {
                "resident": resident,
                "resident_count": len(self._resident),
                "max_resident": self.max_resident,
                "max_sessions": self.max_sessions,
                "sessions_on_disk": len(self.factory.list_sessions()),
                **{
                    key: int(self.metrics.counter(name).value)
                    for key, name in self._STATS_COUNTERS.items()
                },
            }
