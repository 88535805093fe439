"""Tests for the fault-tolerance layer: deadlines, supervision, retries.

Covers the resilience primitives (:mod:`repro.serving.resilience`) as pure
policy, the session supervisor's quarantine/rollback/passthrough
classification in-process, idempotent label replay over the wire, and the
scripted-workload retry adapters.  The network-level fault matrix lives in
``test_chaos.py``.
"""

from __future__ import annotations

import pytest

from repro.config import ServingConfig
from repro.exceptions import (
    DeadlineExceededError,
    ReproError,
    SessionQuarantinedError,
)
from repro.serving import (
    Deadline,
    FlakyAdapter,
    LocalSessionAdapter,
    RetryPolicy,
    RetryingAdapter,
    ScriptedUser,
    ServerThread,
    ServingClient,
    SessionManager,
    session_fingerprint,
)


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestDeadline:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            Deadline(0.0)

    def test_check_is_a_noop_inside_the_budget(self):
        clock = FakeClock()
        deadline = Deadline(5.0, "explore", clock=clock)
        clock.now += 4.9
        deadline.check()  # still inside the budget
        assert deadline.remaining == pytest.approx(0.1)
        assert not deadline.expired

    def test_check_raises_typed_error_once_expired(self):
        clock = FakeClock()
        deadline = Deadline(2.0, "explore", clock=clock)
        clock.now += 2.5
        assert deadline.expired
        with pytest.raises(DeadlineExceededError, match="explore.*2.000s deadline"):
            deadline.check()


class TestRetryPolicy:
    def test_delays_grow_geometrically_and_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, max_delay_s=0.5, multiplier=2.0, jitter=0.0
        )
        assert [policy.delay(n) for n in range(1, 6)] == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_seeded_and_bounded(self):
        first = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=7)
        second = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=7)
        delays = [first.delay(1) for _ in range(5)]
        assert delays == [second.delay(1) for _ in range(5)]  # replayable
        assert all(0.5 <= d <= 1.0 for d in delays)

    def test_should_retry_honours_attempt_cap_and_budget(self):
        policy = RetryPolicy(max_attempts=3, budget_s=10.0)
        assert policy.should_retry(1, 0.0)
        assert policy.should_retry(2, 9.9)
        assert not policy.should_retry(3, 0.0)  # attempts exhausted
        assert not policy.should_retry(1, 10.0)  # budget exhausted

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(budget_s=0.0)


def _run_one_cycle(manager, name: str, dataset) -> list[tuple]:
    """Explore + label + finish once; returns the acked label tuples."""
    with manager.acquire(name) as vocal:
        result = vocal.explore(2)
        labels = [
            (s.clip.vid, s.clip.start, s.clip.end, dataset.class_names[0])
            for s in result.segments
        ]
        from repro.types import Label

        vocal.session.add_labels([Label(*entry) for entry in labels])
        vocal.finish_iteration()
    return labels


def _fail_next_build(manager, monkeypatch) -> None:
    """Make the factory's next ``build`` raise, as a failed rollback would."""
    original_build = manager.factory.build
    fail_once = {"left": 1}

    def flaky_build(name):
        if fail_once["left"]:
            fail_once["left"] -= 1
            raise RuntimeError("no memory for a fresh session")
        return original_build(name)

    monkeypatch.setattr(manager.factory, "build", flaky_build)


def _explore_past_deadline_after_mutation(manager, name: str, fired: list) -> None:
    """Explore supervised under a fake-clock deadline that expires at the
    first scheduler boundary reached after the session state changed;
    appends to ``fired`` when it does."""
    clock = FakeClock()
    deadline = Deadline(5.0, "explore", clock=clock)
    with manager.supervised(name, create=False) as vocal:
        before = manager._state_probe(vocal)

        def gate():
            if not fired and manager._state_probe(vocal) != before:
                clock.now += 10.0
                fired.append(True)
            deadline.check()

        vocal.session.scheduler.preemption_gate = gate
        try:
            vocal.explore(2)
        finally:
            vocal.session.scheduler.preemption_gate = None


class TestSupervisor:
    def test_unexpected_failure_quarantines_and_rolls_back_bit_identically(
        self, manager, dataset
    ):
        _run_one_cycle(manager, "alice", dataset)
        with manager.acquire("alice", create=False) as vocal:
            vocal.checkpoint()
            fingerprint = session_fingerprint(vocal)
        with pytest.raises(
            SessionQuarantinedError, match="no acknowledged label was lost"
        ):
            with manager.supervised("alice", create=False) as vocal:
                vocal.explore(2)  # dirty the state mid-request...
                raise RuntimeError("injected worker crash")
        # ...and the rollback restored the exact pre-fault durable state.
        with manager.acquire("alice", create=False) as vocal:
            assert session_fingerprint(vocal) == fingerprint
        stats = manager.stats()
        assert stats["quarantines"] == 1
        assert stats["rollbacks"] == 1
        assert stats["rollback_failures"] == 0

    def test_rollback_reapplies_journal_tail_labels(self, manager, dataset):
        from repro.types import Label

        acked = _run_one_cycle(manager, "alice", dataset)
        with manager.acquire("alice", create=False) as vocal:
            vocal.checkpoint()
            # Acked past the snapshot: journaled, but not yet checkpointed.
            vocal.session.add_labels([Label(0, 0.0, 1.0, dataset.class_names[0])])
        with pytest.raises(SessionQuarantinedError, match="journal-tail labels re-applied"):
            with manager.supervised("alice", create=False) as vocal:
                vocal.explore(2)
                raise RuntimeError("injected worker crash")
        with manager.acquire("alice", create=False) as vocal:
            assert len(vocal.session.storage.labels) == len(acked) + 1

    def test_clean_repro_errors_pass_through_without_rollback(self, manager):
        manager.open("alice")
        with pytest.raises(ReproError):
            with manager.supervised("alice", create=False) as vocal:
                vocal.finish_iteration()  # no open iteration: clean failure
        stats = manager.stats()
        assert stats["quarantines"] == 0
        assert stats["rollbacks"] == 0

    def test_failed_rollback_poisons_entry_then_rebuilds_from_disk(
        self, manager, dataset, monkeypatch
    ):
        acked = _run_one_cycle(manager, "alice", dataset)
        _fail_next_build(manager, monkeypatch)
        with pytest.raises(SessionQuarantinedError, match="rollback itself failed"):
            with manager.supervised("alice", create=False) as vocal:
                vocal.explore(2)
                raise RuntimeError("injected worker crash")
        assert manager.stats()["rollback_failures"] == 1
        # The poisoned instance is discarded and rebuilt from durable state.
        with manager.acquire("alice", create=False) as vocal:
            assert len(vocal.session.storage.labels) == len(acked)
            vocal.explore(2)
            vocal.finish_iteration()

    def test_deadline_mid_mutation_rolls_back_and_stays_typed(self, manager, dataset):
        _run_one_cycle(manager, "alice", dataset)
        with manager.acquire("alice", create=False) as vocal:
            vocal.checkpoint()
            fingerprint = session_fingerprint(vocal)
        with pytest.raises(DeadlineExceededError, match="safe to retry"):
            with manager.supervised("alice", create=False) as vocal:
                scheduler = vocal.session.scheduler
                scheduler.preemption_gate = Deadline(1e-9, "explore").check
                try:
                    vocal.explore(2)  # parks at the first dispatch boundary
                finally:
                    scheduler.preemption_gate = None
        with manager.acquire("alice", create=False) as vocal:
            assert session_fingerprint(vocal) == fingerprint
        assert manager.stats()["rollbacks"] == 1

    def test_deadline_at_a_boundary_after_mutation_is_not_a_quarantine(
        self, manager, dataset
    ):
        acked = _run_one_cycle(manager, "alice", dataset)  # journaled, no snapshot
        fired = []
        with pytest.raises(DeadlineExceededError, match="explore"):
            _explore_past_deadline_after_mutation(manager, "alice", fired)
        assert fired, "the deadline never fired after a state change"
        stats = manager.stats()
        assert stats["deadline_rollbacks"] == 1
        assert stats["quarantines"] == 0
        assert stats["rollbacks"] == 1
        with manager.acquire("alice", create=False) as vocal:
            stored = [
                (label.vid, label.start, label.end, label.label)
                for label in vocal.session.storage.labels.all()
            ]
            assert stored == acked
            assert not vocal.session.iteration_open

    def test_deadline_whose_rollback_fails_counts_as_a_quarantine(
        self, manager, dataset, monkeypatch
    ):
        # The request ends as a quarantine, so the quarantine counter agrees
        # with the server's "quarantine" outcome for it.
        acked = _run_one_cycle(manager, "alice", dataset)
        _fail_next_build(manager, monkeypatch)
        fired = []
        with pytest.raises(SessionQuarantinedError, match="rollback itself failed"):
            _explore_past_deadline_after_mutation(manager, "alice", fired)
        assert fired, "the deadline never fired after a state change"
        stats = manager.stats()
        assert stats["deadline_rollbacks"] == 1
        assert stats["quarantines"] == 1
        assert stats["rollback_failures"] == 1
        assert stats["rollbacks"] == 0
        with manager.acquire("alice", create=False) as vocal:
            assert len(vocal.session.storage.labels) == len(acked)


class TestServerDeadlines:
    def test_expired_deadline_fails_fast_and_typed_over_the_wire(
        self, factory, stepping_clock
    ):
        # The server clock steps 1 s per read, so the 0.5 s deadline started
        # on receipt has expired by the fast-fail check before pinning.
        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(
            manager,
            ServingConfig(explore_deadline_s=0.5, worker_threads=2),
            clock=stepping_clock,
        )
        host, port = thread.start()
        try:
            with ServingClient(host, port) as client:
                client.open("alice")
                with pytest.raises(DeadlineExceededError, match="explore"):
                    client.explore("alice", batch_size=2)
                # The deadline parked before pinning: nothing to roll back,
                # no quarantine, session healthy.
                stats = client.stats()
                assert stats["manager"]["quarantines"] == 0
                assert stats["manager"]["deadline_rollbacks"] == 0
                assert stats["slo"]["classes"]["explore"]["outcomes"] == {"deadline": 1}
                ack = client.label(
                    "alice", [(0, 0.0, 1.0, factory.dataset.class_names[0])]
                )
                assert ack["durable"] is True
        finally:
            thread.stop()


class TestIdempotentLabels:
    def test_retried_token_replays_ack_exactly_once(self, factory, dataset):
        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(manager, ServingConfig())
        host, port = thread.start()
        try:
            with ServingClient(host, port) as client:
                client.open("alice")
                batch = client.explore("alice", batch_size=2)
                labels = [
                    (s["vid"], s["start"], s["end"], dataset.class_names[0])
                    for s in batch["segments"]
                ]
                first = client.label("alice", labels, finish=True, token="tok-1")
                replayed = client.label("alice", labels, finish=True, token="tok-1")
                assert first == {"stored": 2, "durable": True, "finished": True}
                assert replayed == {**first, "replayed": True}
                assert client.open("alice")["labels"] == len(labels)  # applied once
            assert manager.metrics.counter("serving.label_replays").value == 1
        finally:
            thread.stop()

    def test_tokens_survive_eviction(self, factory, dataset):
        manager = SessionManager(factory, max_resident=1)
        thread = ServerThread(manager, ServingConfig())
        host, port = thread.start()
        try:
            with ServingClient(host, port) as client:
                client.open("alice")
                batch = client.explore("alice", batch_size=2)
                labels = [
                    (s["vid"], s["start"], s["end"], dataset.class_names[0])
                    for s in batch["segments"]
                ]
                client.label("alice", labels, finish=True, token="tok-evict")
                client.open("bob")  # evicts alice (max_resident=1)
                assert not manager.is_resident("alice")
                replayed = client.label("alice", labels, finish=True, token="tok-evict")
                assert replayed["replayed"] is True
                assert client.open("alice")["labels"] == len(labels)
        finally:
            thread.stop()


class TestWorkloadRetries:
    def test_flaky_adapter_sheds_then_retrying_adapter_recovers(self, manager, dataset):
        user = ScriptedUser("alice", 3, dataset.class_names, cycles=2)
        manager.open("alice")
        flaky = FlakyAdapter(LocalSessionAdapter(manager, "alice"), period=2)
        adapter = RetryingAdapter(
            flaky,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            sleep=lambda _s: None,
        )
        user.run(adapter)
        # Every operation was shed exactly once, then succeeded on retry.
        assert flaky.failures > 0
        assert flaky.calls == 2 * flaky.failures
        assert adapter.retries == flaky.failures
        with manager.acquire("alice", create=False) as vocal:
            assert len(vocal.session.storage.labels) == len(user.acked_labels)

    def test_retry_budget_exhaustion_reraises_the_shed(self, manager, dataset):
        from repro.exceptions import AdmissionError

        manager.open("alice")
        flaky = FlakyAdapter(LocalSessionAdapter(manager, "alice"), period=5)
        adapter = RetryingAdapter(
            flaky,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            sleep=lambda _s: None,
        )
        with pytest.raises(AdmissionError, match="injected shed"):
            adapter.explore(2)  # attempts 1 and 2 both land on shed calls
