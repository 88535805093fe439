"""The seeded simulated run still hashes to the golden digest.

This file is the digest's one home: the reference run
(``simulated_records_digest``: deer, seed 0, 6 steps, VE-full) and its golden
SHA-256 live here, and the test fails the moment a change moves a single
float of the latency records or the task completion log.
``benchmarks/bench_telemetry.py`` loads this file by path to check that
tracing leaves the digest unchanged.
"""

import hashlib
import json

from repro.datasets.catalog import build_dataset
from repro.experiments.runner import RunnerConfig, SessionRunner

#: SHA-256 over the seeded simulated latency records and completion log
#: (deer, seed 0, 6 steps, VE-full, default costs).
GOLDEN_SIMULATED_SHA256 = "ecb069f1acdaae8ca8e58db516bf010b77be0d047340709cdddb2488ec74adb5"


def simulated_records_digest() -> str:
    """Hash the latency records + completion log of the seeded reference run.

    The golden constant predates the incremental training engine, so the
    reference run pins ``warm_start=False`` to keep the historical cold-start
    training semantics (zero-initialised fits, stateful-RNG fold assignment)
    that the hash was captured against.
    """
    dataset = build_dataset("deer", seed=0)
    runner = SessionRunner(
        dataset, RunnerConfig(num_steps=6, strategy="ve-full", warm_start=False, seed=0)
    )
    try:
        runner.run()
        scheduler = runner.vocal.session.scheduler
        records = []
        for record in scheduler.iteration_records():
            records.append(
                [
                    record.iteration,
                    record.visible_latency.hex(),
                    record.background_time_used.hex(),
                    record.background_idle_time.hex(),
                    sorted((k, v.hex()) for k, v in record.visible_by_kind.items()),
                ]
            )
        completed = scheduler.completed_tasks()
        base_id = completed[0].task_id
        for task in completed:
            records.append(
                [task.task_id - base_id, task.kind, task.duration.hex(), task.completed_at.hex()]
            )
        return hashlib.sha256(json.dumps(records).encode()).hexdigest()
    finally:
        runner.close()


def test_simulated_run_matches_golden_digest():
    assert simulated_records_digest() == GOLDEN_SIMULATED_SHA256
