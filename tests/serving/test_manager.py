"""Session manager behaviour: admission, LRU eviction, restore, lifecycle."""

from __future__ import annotations

import pytest

from repro.config import TelemetryConfig, VocalExploreConfig
from repro.exceptions import AdmissionError, ServingError, SessionNotFoundError
from repro.serving import CorpusSessionFactory, SessionManager


class TestFactory:
    def test_session_seed_is_name_derived_and_stable(self, factory):
        assert factory.session_seed("alice") == factory.session_seed("alice")
        assert factory.session_seed("alice") != factory.session_seed("bob")

    def test_rejects_telemetry_config(self, dataset, tmp_path):
        config = VocalExploreConfig().with_updates(telemetry=TelemetryConfig(enabled=True))
        with pytest.raises(ServingError, match="telemetry"):
            CorpusSessionFactory(dataset, tmp_path, config=config)

    def test_illegal_name_rejected(self, factory):
        with pytest.raises(ServingError, match="illegal session name"):
            factory.session_dir("../escape")

    def test_list_sessions_reflects_disk(self, factory, manager):
        assert factory.list_sessions() == []
        manager.open("bob")
        manager.open("alice")
        assert factory.list_sessions() == ["alice", "bob"]


class TestAdmission:
    def test_open_creates_once_then_reuses(self, manager):
        first = manager.open("alice")
        second = manager.open("alice")
        assert first["session"] == second["session"] == "alice"
        assert manager.stats()["creates"] == 1

    def test_acquire_unknown_without_create_raises(self, manager):
        with pytest.raises(SessionNotFoundError):
            with manager.acquire("ghost", create=False):
                pass

    def test_max_sessions_bounds_total_names(self, factory):
        with SessionManager(factory, max_resident=2, max_sessions=2) as manager:
            manager.open("a")
            manager.open("b")
            with pytest.raises(AdmissionError, match="session limit"):
                manager.open("c")
            # Existing sessions are still admitted, resident or paged out.
            manager.open("a")

    def test_max_sessions_counts_paged_out_sessions(self, factory):
        with SessionManager(factory, max_resident=1, max_sessions=2) as manager:
            manager.open("a")
            manager.open("b")  # evicts a; both still count
            with pytest.raises(AdmissionError):
                manager.open("c")

    def test_illegal_session_name_raises(self, manager):
        with pytest.raises(ServingError, match="illegal"):
            manager.open("no/slashes")


class TestEviction:
    def test_lru_eviction_at_capacity(self, manager):
        for name in ("a", "b", "c"):
            manager.open(name)
        assert not manager.is_resident("a")
        assert manager.resident_sessions() == ["b", "c"]
        stats = manager.stats()
        assert stats["evictions"] == 1
        assert stats["sessions_on_disk"] == 3

    def test_touching_a_session_protects_it_from_eviction(self, manager):
        manager.open("a")
        manager.open("b")
        manager.open("a")  # a is now most recently used
        manager.open("c")  # evicts b, not a
        assert manager.is_resident("a")
        assert not manager.is_resident("b")

    def test_restore_counts_and_preserves_state(self, manager):
        manager.open("a")
        with manager.acquire("a") as vocal:
            result = vocal.explore(batch_size=2)
            for segment in result.segments:
                vocal.add_label(segment.vid, segment.start, segment.end, "a")
            vocal.finish_iteration()
            labels_before = len(vocal.session.storage.labels)
        manager.open("b")
        manager.open("c")  # pages a out
        with manager.acquire("a") as vocal:  # pages a back in
            assert vocal.session.iteration == 1
            assert len(vocal.session.storage.labels) == labels_before
        assert manager.stats()["restores"] == 1

    def test_explicit_evict_unknown_raises(self, manager):
        with pytest.raises(SessionNotFoundError):
            manager.evict("ghost")

    def test_evict_mid_iteration_refused(self, manager):
        manager.open("a")
        with manager.acquire("a") as vocal:
            vocal.explore(batch_size=2)  # leaves the iteration open
        with pytest.raises(ServingError, match="mid-iteration"):
            manager.evict("a")

    def test_evict_pinned_session_refused(self, manager):
        manager.open("a")
        with manager.acquire("a"):
            with pytest.raises(ServingError, match="in-flight"):
                manager.evict("a")

    def test_mid_iteration_sessions_never_auto_evicted(self, factory):
        with SessionManager(factory, max_resident=1) as manager:
            manager.open("a")
            with manager.acquire("a") as vocal:
                vocal.explore(batch_size=2)
            manager.open("b")  # a is mid-iteration: overshoot, don't evict
            assert manager.is_resident("a")
            assert manager.is_resident("b")
            assert manager.stats()["eviction_overshoots"] == 1

    def test_hard_residency_cap_sheds_instead_of_overshooting(self, factory):
        with SessionManager(factory, max_resident=1, max_overshoot=1) as manager:
            for name in ("a", "b"):
                manager.open(name)
                with manager.acquire(name) as vocal:
                    vocal.explore(batch_size=2)
            # Both residents are mid-iteration: the allowance (1) is spent,
            # so the next admission is shed instead of growing residency.
            with pytest.raises(AdmissionError, match="no evictable session"):
                manager.open("c")
            assert manager.stats()["residency_sheds"] == 1
            assert manager.stats()["resident_count"] == 2
            # Closing one iteration frees an eviction candidate; the retried
            # admission now succeeds within the hard cap.
            with manager.acquire("a") as vocal:
                vocal.finish_iteration()
            manager.open("c")
            assert manager.stats()["resident_count"] == 2
            assert not manager.is_resident("a")

    def test_mid_iteration_sessions_are_never_shed_their_own_requests(self, factory):
        with SessionManager(factory, max_resident=1, max_overshoot=0) as manager:
            manager.open("a")
            with manager.acquire("a") as vocal:
                result = vocal.explore(batch_size=2)
            with pytest.raises(AdmissionError):
                manager.open("b")
            # The session holding the open iteration stays fully servable —
            # the request that closes it (unblocking eviction) cannot shed.
            with manager.acquire("a") as vocal:
                vocal.add_label(
                    result.segments[0].vid,
                    result.segments[0].start,
                    result.segments[0].end,
                    factory.dataset.class_names[0],
                )
                vocal.finish_iteration()
            manager.open("b")

    def test_negative_overshoot_rejected(self, factory):
        with pytest.raises(ServingError, match="max_overshoot"):
            SessionManager(factory, max_resident=1, max_overshoot=-1)


class TestLifecycle:
    def test_close_finishes_open_iterations_before_checkpointing(self, factory):
        with SessionManager(factory, max_resident=2) as manager:
            manager.open("a")
            with manager.acquire("a") as vocal:
                vocal.explore(batch_size=2)  # left open: no labels, no finish
        with SessionManager(factory, max_resident=2) as manager:
            summary = manager.open("a")
            assert summary["iteration"] == 1
            with manager.acquire("a") as vocal:
                assert not vocal.session.iteration_open

    def test_close_is_idempotent_and_rejects_further_work(self, factory):
        manager = SessionManager(factory, max_resident=2)
        manager.open("a")
        manager.close()
        manager.close()
        with pytest.raises(ServingError, match="closed"):
            manager.open("a")

    def test_sessions_survive_manager_restart(self, factory):
        with SessionManager(factory, max_resident=2) as manager:
            manager.open("a")
            with manager.acquire("a") as vocal:
                result = vocal.explore(batch_size=2)
                for segment in result.segments:
                    vocal.add_label(segment.vid, segment.start, segment.end, "b")
                vocal.finish_iteration()
                labeled = len(result.segments)
        with SessionManager(factory, max_resident=2) as manager:
            summary = manager.open("a")
            assert summary["iteration"] == 1
            assert summary["labels"] == labeled
            assert manager.stats()["restores"] == 1
