"""Shared fixtures for the serving-layer tests.

Every test runs against the durability suite's micro dataset (the smallest
corpus that still trains models) and a per-test session root, so evict /
restore / crash-recovery cycles are cheap enough to repeat many times.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

# The crash-injection harness lives with the durability tests (no package
# __init__ files in the test tree, so import it by path like its own suite).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "durability"))

from harness import micro_dataset  # noqa: E402

from repro.serving import CorpusSessionFactory, SessionManager  # noqa: E402

#: The micro dataset generates exactly these extractors' features.
CANDIDATE_FEATURES = ("r3d", "mvit")


@pytest.fixture(scope="session")
def dataset():
    """Shared read-only corpus; sessions never mutate it."""
    return micro_dataset(seed=3)


@pytest.fixture
def factory(dataset, tmp_path):
    """Session factory over a fresh per-test durable root."""
    return CorpusSessionFactory(
        dataset,
        tmp_path / "sessions",
        base_seed=11,
        candidate_features=CANDIDATE_FEATURES,
    )


@pytest.fixture
def manager(factory):
    """A two-resident manager (evictions start at the third session)."""
    with SessionManager(factory, max_resident=2) as instance:
        yield instance


class SteppingClock:
    """Fake server clock: every read advances it by ``step`` seconds.

    A request the server times with no deadline then measures exactly one
    step, and a deadline shorter than one step has always expired by its
    first check — no race against real time or the worker hand-off.
    """

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self.now += self.step
            return self.now


@pytest.fixture
def stepping_clock():
    """A :class:`SteppingClock` advancing one second per read."""
    return SteppingClock()
