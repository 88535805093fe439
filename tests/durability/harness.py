"""Crash-injection test harness.

Drives a persistence scenario twice: once with a recording
:class:`~repro.storage.durability.FaultInjector` to enumerate every
write/fsync/rename/dirsync boundary the scenario crosses, then once per
boundary with the injector armed to raise
:class:`~repro.storage.durability.InjectedCrash` exactly there — simulating
the process dying between those two system calls.  After each simulated
crash the caller resumes from the checkpoint directory in fresh objects and
asserts recovery reached a durable prefix.

Used by ``tests/durability/test_crash_injection.py`` and
``benchmarks/bench_durability.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.storage.durability import FaultInjector, InjectedCrash, inject_faults

__all__ = ["CrashOutcome", "enumerate_fault_points", "run_crashing_at", "seeded_runner_config"]


@dataclass
class CrashOutcome:
    """Result of one armed run."""

    #: Whether the armed fault point was actually reached (a scenario may
    #: legitimately cross fewer points on some code paths).
    crashed: bool
    #: Name of the fault point the crash was injected at (None if not reached).
    point: str | None
    #: Every fault point crossed before the crash.
    crossed: list[str] = field(default_factory=list)


def enumerate_fault_points(scenario: Callable[[], None]) -> list[str]:
    """Run ``scenario`` once, recording every fault point it crosses."""
    injector = FaultInjector()
    with inject_faults(injector):
        scenario()
    return injector.crossed


def run_crashing_at(scenario: Callable[[], None], index: int) -> CrashOutcome:
    """Run ``scenario`` with a crash armed at the ``index``-th crossing."""
    injector = FaultInjector(crash_at=index)
    try:
        with inject_faults(injector):
            scenario()
    except InjectedCrash as crash:
        return CrashOutcome(crashed=True, point=crash.point, crossed=injector.crossed)
    return CrashOutcome(crashed=False, point=None, crossed=injector.crossed)


def micro_dataset(seed: int = 3):
    """Smallest dataset that still trains models and detects skew.

    The exhaustive crash matrix repeats one seeded run per injection point,
    so the workload must be seconds-cheap in total while still touching
    every journaled write type (labels, features, models).
    """
    from repro.datasets.synthetic import DatasetSpec, generate_dataset

    spec = DatasetSpec(
        name="micro",
        class_names=("a", "b", "c"),
        class_probabilities=(0.6, 0.25, 0.15),
        num_train_videos=14,
        num_eval_videos=6,
        video_duration=6.0,
        feature_qualities={"r3d": 0.35, "mvit": 0.3},
        correct_features=("r3d",),
        skewed=True,
    )
    return generate_dataset(spec, seed=seed)


def seeded_runner_config(checkpoint_dir: str, **overrides):
    """RunnerConfig for a tiny, deterministic checkpointed explore run.

    Serial strategy on the simulated clock: every train/evaluate runs
    synchronously, so the workload is small enough to repeat once per
    injection point while still exercising labels, feature extraction,
    model registration, journal commits, and snapshots.
    """
    from repro.experiments.runner import RunnerConfig

    defaults = dict(
        num_steps=4,
        batch_size=3,
        strategy="serial",
        candidate_features=("r3d", "mvit"),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=2,
        evaluate_every=4,
        seed=3,
    )
    defaults.update(overrides)
    return RunnerConfig(**defaults)
