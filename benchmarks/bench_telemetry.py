"""Telemetry-overhead benchmark: the observability layer must be ~free.

(systems microbenchmark, no paper figure)

The telemetry subsystem (``repro.telemetry``) instruments every hot path —
scheduler accounting, feature extraction, training, index search, journal
commits — so its cost has to be bounded or it would distort the very
latencies it measures.  Three measured modes over the same seeded simulated
explore loop:

* **stripped** — the facade functions monkeypatched to bare no-ops: the
  floor, measuring only the residual cost of the call sites themselves.
* **disabled** — the shipped default: no active run, every facade call takes
  the null-object fast path.
* **tracing** — a full run: JSONL + Chrome sinks, metrics, SLO accounting.

Gates, all of which fail the process (exit 1) when violated:

1. **Disabled overhead** — disabled vs stripped <= 3%.
2. **Tracing overhead** — tracing vs stripped <= 10%.
3. **Bit-identity** — the scheduler's latency records and completion log
   hash identically with telemetry off and on (telemetry must never touch
   the simulated clock or any RNG).
4. **Trace completeness** — the Chrome trace spans >= 6 subsystem
   categories, and the JSONL trace carries the per-iteration SLO verdicts
   (with at least one violation under a deliberately tiny budget) that the
   rendered report also shows.

The run writes ``BENCH_telemetry.json`` (per-mode timings, overhead ratios,
trace statistics) so CI can archive the trajectory across PRs; the sample
trace directory is kept for artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry.py          # full run
    PYTHONPATH=src python benchmarks/bench_telemetry.py --quick  # CI smoke run
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import logging
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro import telemetry
from repro.datasets.catalog import build_dataset
from repro.experiments.runner import RunnerConfig, SessionRunner

logger = logging.getLogger(__name__)


def _load_golden_digest():
    """The tier-1 golden-digest test module, loaded by path (its one home)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "integration" / "test_golden_digest.py"
    spec = importlib.util.spec_from_file_location("test_golden_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_golden = _load_golden_digest()
GOLDEN_SIMULATED_SHA256 = _golden.GOLDEN_SIMULATED_SHA256
simulated_records_digest = _golden.simulated_records_digest

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"
#: Copy of the sample run's Chrome trace, kept at a stable path so CI can
#: archive it (the trace directory itself lives under a tempdir).
TRACE_ARTIFACT = ARTIFACT.parent / "BENCH_telemetry_trace.json"

#: Gate 1: facade fast path (no active run) vs stripped call sites.
MAX_DISABLED_OVERHEAD = 0.03
#: Gate 2: full tracing (sinks + metrics + SLO) vs stripped call sites.
MAX_TRACING_OVERHEAD = 0.10
#: Gate 4: distinct Chrome-trace categories a traced session must produce.
MIN_TRACE_CATEGORIES = 6

#: Facade functions the stripped mode replaces with bare no-ops.
_FACADE_NAMES = (
    "enabled",
    "span",
    "start_span",
    "capture_context",
    "task_scope",
    "counter",
    "gauge",
    "histogram",
)


def _run_loop(
    steps: int,
    trace_dir: str | None,
    slo: float | None,
    checkpoint: bool = False,
    search: bool = False,
) -> float:
    """One seeded simulated explore loop; returns wall seconds.

    The timed overhead modes run the pure explore loop (CPU-bound, stable);
    the untimed completeness run adds durable checkpoints and one similarity
    search so the traced session touches all six instrumented subsystems —
    fsync noise stays out of the overhead measurement.
    """
    dataset = build_dataset("deer", seed=0)
    with tempfile.TemporaryDirectory(prefix="bench_telemetry_ckpt_") as ckpt:
        runner = SessionRunner(
            dataset,
            RunnerConfig(
                num_steps=steps,
                strategy="ve-full",
                seed=0,
                checkpoint_dir=ckpt if checkpoint else None,
                checkpoint_every=2 if checkpoint else 0,
                trace_dir=trace_dir,
                visible_latency_slo_s=slo,
            ),
        )
        try:
            start = time.perf_counter()
            runner.run()
            if search:
                session = runner.vocal.session
                query = session.storage.labels.all()[0].clip
                session.search(query, k=3)
            return time.perf_counter() - start
        finally:
            runner.close()


def _strip_facade():
    """Monkeypatch the telemetry facade to bare no-ops; returns an undo hook.

    The instrumented call sites resolve ``telemetry.span`` etc. as module
    attributes at every call, so patching the module measures exactly the
    residual cost the instrumentation adds on top of an uninstrumented
    codebase (minus one function call per site, which is the floor).
    """
    saved = {name: getattr(telemetry, name) for name in _FACADE_NAMES}

    def _noop_false():
        return False

    def _noop_null(*args, **kwargs):
        return telemetry.NULL_SPAN

    def _noop_none(*args, **kwargs):
        return None

    telemetry.enabled = _noop_false
    telemetry.span = _noop_null
    telemetry.start_span = _noop_null
    telemetry.task_scope = _noop_null
    telemetry.capture_context = _noop_none
    telemetry.counter = lambda *a, **k: telemetry.NULL_COUNTER
    telemetry.gauge = lambda *a, **k: telemetry.NULL_GAUGE
    telemetry.histogram = lambda *a, **k: telemetry.NULL_HISTOGRAM

    def restore():
        for name, value in saved.items():
            setattr(telemetry, name, value)

    return restore


def measure_modes(steps: int, repeats: int, trace_dir: str) -> dict:
    """Time the explore loop in stripped / disabled / tracing modes.

    One untimed warm-up run first (imports, page cache, numpy internals),
    then each mode keeps the minimum over ``repeats`` runs — wall-clock
    noise is one-sided (interruptions only ever add time), so the min is
    the floor estimator.  Modes are interleaved so drift (thermal, page
    cache) hits all three equally.
    """
    _run_loop(steps, None, None)  # warm-up, untimed

    def _timed_stripped() -> float:
        restore = _strip_facade()
        try:
            return _run_loop(steps, None, None)
        finally:
            restore()

    def _timed_tracing(repeat: int) -> float:
        return _run_loop(steps, str(Path(trace_dir) / f"run-{repeat}"), 1.0)

    timings: dict[str, list[float]] = {"stripped": [], "disabled": [], "tracing": []}
    order = ["stripped", "disabled", "tracing"]
    for repeat in range(repeats):
        # Rotate the mode order every repeat so slow drift (CPU frequency,
        # growing page cache) cannot masquerade as a mode difference.
        for mode in order[repeat % 3 :] + order[: repeat % 3]:
            if mode == "stripped":
                timings[mode].append(_timed_stripped())
            elif mode == "disabled":
                timings[mode].append(_run_loop(steps, None, None))
            else:
                timings[mode].append(_timed_tracing(repeat))
    best = {mode: min(times) for mode, times in timings.items()}
    return {
        "steps": steps,
        "repeats": repeats,
        "seconds": best,
        "all_seconds": timings,
        "disabled_overhead": best["disabled"] / best["stripped"] - 1.0,
        "tracing_overhead": best["tracing"] / best["stripped"] - 1.0,
    }


def check_trace(trace_dir: str) -> dict:
    """Validate one traced run's artifacts; returns trace statistics."""
    trace_path = Path(trace_dir)
    records = [
        json.loads(line)
        for line in (trace_path / "trace.jsonl").read_text().splitlines()
        if line.strip()
    ]
    spans = [r for r in records if r.get("type") == "span"]
    slo = [r for r in records if r.get("type") == "slo"]
    chrome = json.loads((trace_path / "chrome_trace.json").read_text())
    chrome_cats = {
        event["cat"] for event in chrome["traceEvents"] if event.get("ph") == "X"
    }
    doc = telemetry.load_run(trace_path)
    report = telemetry.render_report(doc["metrics"], doc.get("slo"), doc.get("label", "run"))
    return {
        "jsonl_spans": len(spans),
        "jsonl_slo_records": len(slo),
        "slo_violations": sum(1 for r in slo if r.get("violated")),
        "categories": sorted(chrome_cats),
        "chrome_events": len(chrome["traceEvents"]),
        "report_has_violations": "VIOLATED" in report,
    }


def main(argv: list[str] | None = None) -> int:
    """Run every gate; returns a process exit code."""
    telemetry.configure_logging("info", stream=sys.stdout, fmt="%(message)s")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke run (smaller workload)")
    args = parser.parse_args(argv)

    steps = 4 if args.quick else 8
    repeats = 5 if args.quick else 7

    failures = 0
    trace_root = tempfile.mkdtemp(prefix="bench_telemetry_")

    logger.info("== telemetry overhead (%d steps, min over %d repeats) ==", steps, repeats)
    modes = measure_modes(steps, repeats, trace_root)
    for mode in ("stripped", "disabled", "tracing"):
        logger.info("%-9s %.3fs", mode, modes["seconds"][mode])
    logger.info(
        "disabled overhead: %+.2f%% (gate <= %.0f%%)",
        100 * modes["disabled_overhead"], 100 * MAX_DISABLED_OVERHEAD,
    )
    logger.info(
        "tracing  overhead: %+.2f%% (gate <= %.0f%%)",
        100 * modes["tracing_overhead"], 100 * MAX_TRACING_OVERHEAD,
    )
    if modes["disabled_overhead"] > MAX_DISABLED_OVERHEAD:
        logger.info("FAIL: disabled telemetry exceeds the overhead gate")
        failures += 1
    if modes["tracing_overhead"] > MAX_TRACING_OVERHEAD:
        logger.info("FAIL: full tracing exceeds the overhead gate")
        failures += 1

    logger.info("")
    logger.info("== bit-identity: simulated records with telemetry off vs on ==")
    digest_off = simulated_records_digest()
    run = telemetry.start_run(
        trace_dir=str(Path(trace_root) / "digest"), slo_budget_s=1.0, label="digest"
    )
    try:
        digest_on = simulated_records_digest()
    finally:
        run.close()
    logger.info("off == golden: %s", digest_off == GOLDEN_SIMULATED_SHA256)
    logger.info("on  == golden: %s", digest_on == GOLDEN_SIMULATED_SHA256)
    if digest_off != GOLDEN_SIMULATED_SHA256 or digest_on != GOLDEN_SIMULATED_SHA256:
        logger.info("FAIL: telemetry perturbed the deterministic reference run")
        failures += 1

    logger.info("")
    logger.info("== trace completeness ==")
    sample_dir = str(Path(trace_root) / "sample")
    _run_loop(steps, sample_dir, 1.0, checkpoint=True, search=True)
    trace = check_trace(sample_dir)
    shutil.copyfile(Path(sample_dir) / "chrome_trace.json", TRACE_ARTIFACT)
    logger.info(
        "categories (%d, gate >= %d): %s",
        len(trace["categories"]), MIN_TRACE_CATEGORIES, ", ".join(trace["categories"]),
    )
    logger.info(
        "spans: %d   slo records: %d (%d violated)   report shows violations: %s",
        trace["jsonl_spans"], trace["jsonl_slo_records"], trace["slo_violations"],
        trace["report_has_violations"],
    )
    if len(trace["categories"]) < MIN_TRACE_CATEGORIES:
        logger.info("FAIL: traced run covers too few subsystem categories")
        failures += 1
    if trace["jsonl_slo_records"] == 0 or trace["slo_violations"] == 0:
        logger.info("FAIL: SLO verdicts missing from the JSONL trace")
        failures += 1
    if not trace["report_has_violations"]:
        logger.info("FAIL: rendered report does not surface the SLO violations")
        failures += 1

    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "telemetry",
                "quick": args.quick,
                "modes": modes,
                "gates": {
                    "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
                    "max_tracing_overhead": MAX_TRACING_OVERHEAD,
                    "min_trace_categories": MIN_TRACE_CATEGORIES,
                },
                "trace": trace,
                "sample_trace_dir": sample_dir,
                "golden_digest_match": {
                    "off": digest_off == GOLDEN_SIMULATED_SHA256,
                    "on": digest_on == GOLDEN_SIMULATED_SHA256,
                },
                "failures": failures,
            },
            indent=2,
        )
        + "\n"
    )
    logger.info("")
    logger.info("sample trace: %s (chrome trace copied to %s)", sample_dir, TRACE_ARTIFACT)
    logger.info("artifact: %s", ARTIFACT)
    if failures == 0:
        logger.info("PASS")
    else:
        logger.info("FAIL (%d gate(s) violated)", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
