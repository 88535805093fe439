"""Released sessions are freed by reference counting alone.

Every test here runs with the cycle collector disabled, so a session that is
only reachable through a reference cycle would stay alive.  Each path that
drops a resident instance — LRU eviction, ``evict()``, discarding a poisoned
entry, a quarantine rollback, and ``SessionManager.close()`` — must free the
old instance's ``ExplorationSession``, ``StorageManager`` and
``TaskScheduler`` at once.  So must a freshly built instance whose restore
fails, on admission or in a rollback.  The ``wrapped`` variants install
per-instance wrappers the way a benchmark harness does (a closure over the
instance's own bound method, stored on the instance), which puts the
``VOCALExplore`` handle itself in a cycle; closing the handle must still free
its session.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.exceptions import SessionQuarantinedError
from repro.serving import SessionManager
from repro.types import Label

RELEASED = ["ExplorationSession", "StorageManager", "TaskScheduler"]


@pytest.fixture
def no_gc():
    """Disable the cycle collector for the test body."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _wrap_own_methods(vocal) -> None:
    """Store closures over ``vocal``'s own bound methods on ``vocal``."""
    for attr in ("explore", "search"):
        original = getattr(vocal, attr)

        def timed(*args, _original=original, **kwargs):
            return _original(*args, **kwargs)

        setattr(vocal, attr, timed)


@pytest.fixture(params=[False, True], ids=["plain", "wrapped"])
def wrapped_factory(request, factory):
    """The session factory, optionally wrapping every instance it builds."""
    if request.param:
        build = factory.build

        def build_wrapped(name):
            vocal = build(name)
            _wrap_own_methods(vocal)
            return vocal

        factory.build = build_wrapped
    return factory


def _watch(manager: SessionManager, name: str) -> list[str]:
    """Finalizers on the resident instance's session, storage and scheduler.

    The returned list collects the class name of each object as it is freed.
    """
    with manager.acquire(name, create=False) as vocal:
        session = vocal.session
    freed: list[str] = []
    for obj in (session, session.storage, session.scheduler):
        weakref.finalize(obj, freed.append, type(obj).__name__)
    return freed


def _one_iteration(manager: SessionManager, name: str, label: str) -> None:
    with manager.acquire(name) as vocal:
        result = vocal.explore(2)
        vocal.session.add_labels(
            [Label(s.clip.vid, s.clip.start, s.clip.end, label) for s in result.segments]
        )
        vocal.finish_iteration()


def _fail_next_build(manager: SessionManager) -> None:
    build = manager.factory.build
    left = [1]

    def flaky_build(name):
        if left[0]:
            left[0] -= 1
            raise RuntimeError("no memory for a fresh session")
        return build(name)

    manager.factory.build = flaky_build


def _fail_next_resume(manager: SessionManager) -> list[str]:
    """Make the next instance the factory builds fail its ``resume``.

    Returns the list that finalizers on that instance's session, storage and
    scheduler append to as each is freed (see :func:`_watch`).
    """
    build = manager.factory.build
    freed: list[str] = []
    left = [1]

    def build_unrestorable(name):
        vocal = build(name)
        if left[0]:
            left[0] -= 1
            session = vocal.session
            for obj in (session, session.storage, session.scheduler):
                weakref.finalize(obj, freed.append, type(obj).__name__)

            def resume():
                raise RuntimeError("snapshot unreadable")

            vocal.resume = resume
        return vocal

    manager.factory.build = build_unrestorable
    return freed


def _crash_inside(manager: SessionManager, name: str) -> None:
    with manager.supervised(name, create=False) as vocal:
        vocal.explore(2)
        raise RuntimeError("injected worker crash")


@pytest.mark.usefixtures("no_gc")
class TestReleasedSessionsAreFreed:
    def test_lru_eviction(self, wrapped_factory, dataset):
        with SessionManager(wrapped_factory, max_resident=2) as manager:
            _one_iteration(manager, "a", dataset.class_names[0])
            manager.open("b")
            freed = _watch(manager, "a")
            manager.open("b")  # touch b, so a is the LRU victim
            manager.open("c")
            assert not manager.is_resident("a")
            assert sorted(freed) == RELEASED

    def test_explicit_evict(self, wrapped_factory, dataset):
        with SessionManager(wrapped_factory, max_resident=2) as manager:
            _one_iteration(manager, "a", dataset.class_names[0])
            freed = _watch(manager, "a")
            manager.evict("a")
            assert sorted(freed) == RELEASED

    def test_quarantine_rollback(self, wrapped_factory, dataset):
        with SessionManager(wrapped_factory, max_resident=2) as manager:
            _one_iteration(manager, "a", dataset.class_names[0])
            freed = _watch(manager, "a")
            with pytest.raises(SessionQuarantinedError, match="rolled back"):
                _crash_inside(manager, "a")
            assert sorted(freed) == RELEASED
            assert manager.stats()["rollbacks"] == 1

    def test_discarding_a_poisoned_entry(self, wrapped_factory, dataset):
        with SessionManager(wrapped_factory, max_resident=2) as manager:
            _one_iteration(manager, "a", dataset.class_names[0])
            freed = _watch(manager, "a")
            _fail_next_build(manager)
            with pytest.raises(SessionQuarantinedError, match="rollback itself failed"):
                _crash_inside(manager, "a")
            # The failed rollback already closed the instance.
            assert sorted(freed) == RELEASED
            entry = manager.stats()["resident"][0]
            assert entry == {"session": "a", "poisoned": True, "pinned": 0, "requests": 3}
            # The next request discards the poisoned entry and rebuilds it.
            assert manager.open("a")["labels"] == 2

    def test_failed_restore_on_admission(self, wrapped_factory, dataset):
        with SessionManager(wrapped_factory, max_resident=2) as manager:
            _one_iteration(manager, "a", dataset.class_names[0])
            manager.evict("a")
            freed = _fail_next_resume(manager)
            with pytest.raises(RuntimeError, match="snapshot unreadable"):
                manager.open("a")
            assert sorted(freed) == RELEASED
            assert not manager.is_resident("a")
            assert manager.open("a")["labels"] == 2

    def test_failed_restore_in_a_rollback(self, wrapped_factory, dataset):
        with SessionManager(wrapped_factory, max_resident=2) as manager:
            _one_iteration(manager, "a", dataset.class_names[0])
            freed = _fail_next_resume(manager)
            with pytest.raises(SessionQuarantinedError, match="rollback itself failed"):
                _crash_inside(manager, "a")
            assert sorted(freed) == RELEASED
            assert manager.stats()["resident"][0]["poisoned"] is True
            assert manager.open("a")["labels"] == 2

    def test_manager_close(self, wrapped_factory, dataset):
        manager = SessionManager(wrapped_factory, max_resident=2)
        _one_iteration(manager, "a", dataset.class_names[0])
        freed = _watch(manager, "a")
        manager.close()
        assert sorted(freed) == RELEASED


def _live_repro_objects() -> Counter:
    """Live instances of ``repro`` classes, by class name."""
    counts: Counter = Counter()
    for obj in gc.get_objects():
        module = getattr(type(obj), "__module__", None)
        if isinstance(module, str) and module.startswith("repro."):
            counts[type(obj).__qualname__] += 1
    return counts


@pytest.mark.usefixtures("no_gc")
def test_evict_restore_cycles_of_idle_sessions_keep_memory_flat(factory, dataset):
    with SessionManager(factory, max_resident=1) as manager:
        for name in ("a", "b"):
            _one_iteration(manager, name, dataset.class_names[0])
        # Warm up: each session is evicted and restored once.
        for name in ("a", "b"):
            manager.open(name)
        before = _live_repro_objects()
        for _ in range(6):
            for name in ("a", "b"):
                manager.open(name)  # restores name, evicts the other
        after = _live_repro_objects()
        assert manager.stats()["evictions"] == 15
        assert after - before == Counter()
        assert before - after == Counter()
