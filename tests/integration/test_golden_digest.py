"""The seeded simulated run still hashes to the golden digest.

``benchmarks/bench_engine.py`` owns both the reference run
(``simulated_records_digest``: deer, seed 0, 6 steps, VE-full) and its
golden SHA-256; this test loads that file by path so the hash has one home,
and fails the moment a change moves a single float of the latency records
or the task completion log.
"""

import importlib.util
from pathlib import Path

BENCH_ENGINE = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_engine.py"


def load_bench_engine():
    spec = importlib.util.spec_from_file_location("bench_engine", BENCH_ENGINE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_simulated_run_matches_golden_digest():
    bench = load_bench_engine()
    assert bench.simulated_records_digest() == bench.GOLDEN_SIMULATED_SHA256
