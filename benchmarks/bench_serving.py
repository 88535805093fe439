"""Serving benchmark: open-loop Poisson replay, bounded memory, SLO tails.

(systems microbenchmark, no paper figure)

Drives the multi-session serving layer (``repro.serving``) with seeded
scripted users replayed under an **open-loop Poisson arrival process** —
each request's latency is measured from its *scheduled* arrival, so queueing
delay counts against the tail instead of being hidden by a closed feedback
loop.  Three gates, all of which fail the process (exit 1) when violated:

1. **Bounded memory** — hosting 4×K scripted sessions with only K resident
   (LRU eviction paging the rest to disk) must stay within 1.5× the peak RSS
   of hosting K sessions outright.  Peak RSS is a process-lifetime high-water
   mark, so every scenario runs in its own subprocess.
2. **Eviction is invisible** — in the 4×K scenario real evictions must have
   happened, and sampled sessions must end *bit-identical* (state
   fingerprints over labels, model parameters, bandit state, RNG streams,
   latency records) to solo replays of the same scripts that never faced
   eviction.
3. **SLO accounting** — the report must carry p50/p99/p999 and budget
   verdicts for every request class (explore / label / search / predict).
4. **Degraded mode** — the same scripted workload through a
   :class:`ChaosProxy` injecting a recoverable network fault on every 10th
   request (10% fault rate: connection resets, partial frames, duplicated
   requests) must complete with **zero operations failed after retries**
   and an overall p99 within 2× the fault-free p99 (plus a 50 ms absolute
   slack for sub-100 ms baselines).  Stall faults are exercised by the
   chaos test matrix instead — their latency cost is the client timeout
   constant by construction, so "2× fault-free" would only measure it.
5. **No regression** — when the ``BENCH_serving.json`` left in the
   checkout root by the last *passing* run (a local artifact, gitignored)
   was produced by the *same* workload configuration, the new fault-free
   per-class p50/p99 must stay within 1.05× its numbers plus a 50 ms
   absolute slack.

The run also sweeps arrival rates to locate the **saturation point** (offered
load where shedding or tail blow-up begins) and reports **sessions-per-GB**
from the measured RSS envelope.  Only a run that passes every gate writes
its report to ``BENCH_serving.json``, so a failing (noisy) run never
becomes the baseline the next run is judged against.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py          # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --quick  # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path

from repro import telemetry
from repro.config import ServingConfig
from repro.datasets.synthetic import DatasetSpec, generate_dataset
from repro.exceptions import AdmissionError
from repro.serving import (
    REQUEST_CLASSES,
    CorpusSessionFactory,
    LocalSessionAdapter,
    RemoteSessionAdapter,
    RetryPolicy,
    ScriptedUser,
    ServerThread,
    ServingClient,
    SessionManager,
    session_fingerprint,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.slo import format_request_class, record_request, request_summary

logger = logging.getLogger(__name__)

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
#: The ChaosProxy fault-injection harness lives with the chaos tests.
_CHAOS_DIR = Path(__file__).resolve().parent.parent / "tests" / "serving"

#: Gate: peak RSS of the 4×K-session scenario vs the K-session scenario.
MAX_RSS_RATIO = 1.5
#: Generous per-class budgets (wall seconds) so every class gets verdicts.
BUDGETS = {"explore_slo_s": 5.0, "label_slo_s": 5.0, "search_slo_s": 5.0, "predict_slo_s": 5.0}
#: The same budgets keyed by request class, for the client-side roll-up.
CLASS_BUDGETS = ServingConfig(**BUDGETS).budgets()
#: Saturation: offered load where more than this fraction of requests is shed.
MAX_SHED_FRACTION = 0.05
CANDIDATES = ("r3d", "mvit")
#: Degraded mode: a fault on every Nth proxied request (10 = 10% fault rate).
FAULT_PERIOD = 10
#: Recoverable (non-stall) fault points cycled through in degraded mode.
DEGRADED_FAULTS = (
    "request_reset",
    "request_partial",
    "request_duplicate",
    "response_reset",
    "response_partial",
)
#: Gate: degraded-mode overall p99 vs fault-free, plus absolute slack.
MAX_DEGRADED_P99_RATIO = 2.0
DEGRADED_P99_SLACK_S = 0.05
#: Gate: fault-free p50/p99 vs the last passing run's artifact (same config).
MAX_REGRESSION_RATIO = 1.05
REGRESSION_SLACK_S = 0.05


def bench_dataset(num_videos: int):
    spec = DatasetSpec(
        name="serving-bench",
        class_names=("a", "b", "c"),
        class_probabilities=(0.6, 0.25, 0.15),
        num_train_videos=num_videos,
        num_eval_videos=max(6, num_videos // 4),
        video_duration=6.0,
        feature_qualities={"r3d": 0.35, "mvit": 0.3},
        correct_features=("r3d",),
        skewed=True,
    )
    return generate_dataset(spec, seed=7)


def _session_names(count: int) -> list[str]:
    return [f"user{i:03d}" for i in range(count)]


def _op_class(op: str) -> str | None:
    return {"explore": "explore", "label": "label", "search": "search", "predict": "predict"}.get(op)


class PoissonReplay:
    """Replays one scripted user over a connection with Poisson arrivals.

    Open loop: the arrival times are drawn up front from the session's seeded
    exponential process; each request's latency runs from its *scheduled*
    arrival to its completion, so time spent queueing behind a busy server is
    charged to the request.  Shed requests (``AdmissionError``) are retried —
    the script's state must advance — with every shed counted.  Latencies
    are recorded in ``metrics``, the same way the server records its own.
    """

    def __init__(
        self, user: ScriptedUser, rate_hz: float, metrics: MetricsRegistry, seed: int
    ) -> None:
        import numpy as np

        self.user = user
        self.metrics = metrics
        rng = np.random.default_rng(zlib.crc32(f"arrivals:{seed}:{user.name}".encode()) & 0x7FFFFFFF)
        gaps = rng.exponential(1.0 / rate_hz, size=len(user.steps))
        self.offsets = list(gaps.cumsum())
        self.sheds = 0

    def run(self, adapter, epoch: float) -> None:
        for index, offset in enumerate(self.offsets):
            scheduled = epoch + offset
            now = time.perf_counter()
            if scheduled > now:
                time.sleep(scheduled - now)
            while True:
                try:
                    self.user.run_step(adapter, index)
                    break
                except AdmissionError:
                    self.sheds += 1
                    time.sleep(0.02)
            request_class = _op_class(self.user.steps[index]["op"])
            if request_class is not None:
                latency = time.perf_counter() - scheduled
                record_request(
                    self.metrics, request_class, latency, CLASS_BUDGETS.get(request_class)
                )


def replay_sessions(host, port, dataset, names, base_seed, cycles, rate_hz):
    """Drive every named session concurrently; returns the replay telemetry."""
    metrics = MetricsRegistry()
    users = {
        name: ScriptedUser(name, base_seed + index, dataset.class_names, cycles=cycles)
        for index, name in enumerate(names)
    }
    replays = {name: PoissonReplay(users[name], rate_hz, metrics, base_seed) for name in names}
    errors: list[tuple[str, BaseException]] = []

    # Open every session serially first: session creation is control-plane
    # setup, and a simultaneous open stampede would pollute the shed counts
    # that the saturation sweep interprets as workload overload.
    with ServingClient(host, port, timeout=120.0) as setup:
        for name in names:
            setup.open(name)
    epoch = time.perf_counter() + 0.05

    def drive(name: str) -> None:
        try:
            with ServingClient(host, port, timeout=120.0) as client:
                replays[name].run(RemoteSessionAdapter(client, name), epoch)
        except BaseException as exc:  # surfaced after join
            errors.append((name, exc))

    threads = [threading.Thread(target=drive, args=(name,)) for name in names]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(600)
    if errors:
        raise RuntimeError(f"replay failed: {errors[:3]}")
    span = time.perf_counter() - start
    summary = request_summary(metrics, REQUEST_CLASSES, CLASS_BUDGETS)
    requests = summary["requests"]
    return {
        "users": users,
        "summary": summary,
        "sheds": sum(replay.sheds for replay in replays.values()),
        "requests": requests,
        "span_s": span,
        "achieved_rps": requests / span if span > 0 else 0.0,
        "offered_rps": rate_hz * len(names),
    }


# ----------------------------------------------------------------- scenarios
def run_scenario(spec: dict) -> dict:
    """One hosted-load scenario; meant to run in a dedicated subprocess."""
    dataset = bench_dataset(spec["videos"])
    with tempfile.TemporaryDirectory() as root:
        factory = CorpusSessionFactory(
            dataset, Path(root) / "live", base_seed=spec["seed"], candidate_features=CANDIDATES
        )
        # Hard residency bound: when every resident session is mid-iteration,
        # admissions shed (and the replay retries) instead of growing memory —
        # without this an interleaved workload overshoots the cap roughly to
        # its mid-iteration session count, unbounding the RSS envelope.
        manager = SessionManager(
            factory,
            max_resident=spec["max_resident"],
            max_overshoot=spec["max_resident"],
        )
        thread = ServerThread(
            manager,
            ServingConfig(worker_threads=spec["workers"], max_queue_depth=256, **BUDGETS),
        )
        host, port = thread.start()
        names = _session_names(spec["sessions"])
        try:
            replay = replay_sessions(
                host, port, dataset, names, spec["seed"], spec["cycles"], spec["rate_hz"]
            )
            stats = manager.stats()

            # Bit-identity probe: sampled sessions from the eviction-pressured
            # host must match solo replays that never faced eviction.
            identity = []
            for name in names[:: max(1, len(names) // spec["identity_samples"])][
                : spec["identity_samples"]
            ]:
                with manager.acquire(name) as vocal:
                    hosted = session_fingerprint(vocal)
                solo_factory = CorpusSessionFactory(
                    dataset,
                    Path(root) / f"solo-{name}",
                    base_seed=spec["seed"],
                    candidate_features=CANDIDATES,
                )
                index = names.index(name)
                solo_user = ScriptedUser(
                    name, spec["seed"] + index, dataset.class_names, cycles=spec["cycles"]
                )
                with SessionManager(solo_factory, max_resident=1) as solo_manager:
                    solo_manager.open(name)
                    solo_user.run(LocalSessionAdapter(solo_manager, name))
                    with solo_manager.acquire(name) as vocal:
                        solo = session_fingerprint(vocal)
                identity.append({"session": name, "identical": hosted == solo})
        finally:
            thread.stop()

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "spec": {key: value for key, value in spec.items()},
        "peak_rss_kb": peak_rss_kb,
        "slo": replay["summary"],
        "sheds": replay["sheds"],
        "requests": replay["requests"],
        "span_s": replay["span_s"],
        "achieved_rps": replay["achieved_rps"],
        "offered_rps": replay["offered_rps"],
        "identity": identity,
        "manager": {
            key: stats[key]
            for key in (
                "creates", "restores", "evictions", "eviction_overshoots",
                "residency_sheds", "sessions_on_disk", "resident_count",
                "max_resident",
            )
        },
    }


def run_scenario_subprocess(spec: dict) -> dict:
    """Run one scenario in a fresh interpreter (clean RSS high-water mark)."""
    process = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--scenario-json", json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    if process.returncode != 0:
        raise RuntimeError(
            f"scenario subprocess failed (rc={process.returncode}):\n{process.stderr[-2000:]}"
        )
    return json.loads(process.stdout.splitlines()[-1])


# ----------------------------------------------------------------- saturation
def sweep_saturation(dataset, sessions: int, cycles: int, rates: list[float], seed: int) -> dict:
    """Raise offered load until the server sheds; report the knee.

    Each level runs against a deliberately small queue and worker pool so the
    sweep finds the knee quickly; the saturation point is the last offered
    rate served with a shed fraction below :data:`MAX_SHED_FRACTION`.
    """
    levels = []
    saturation_rps = None
    names = _session_names(sessions)
    for rate_hz in rates:
        with tempfile.TemporaryDirectory() as root:
            factory = CorpusSessionFactory(
                dataset, root, base_seed=seed, candidate_features=CANDIDATES
            )
            manager = SessionManager(factory, max_resident=sessions)
            thread = ServerThread(
                manager, ServingConfig(worker_threads=2, max_queue_depth=2, **BUDGETS)
            )
            host, port = thread.start()
            try:
                replay = replay_sessions(host, port, dataset, names, seed, cycles, rate_hz)
            finally:
                thread.stop()
        attempts = replay["requests"] + replay["sheds"]
        shed_fraction = replay["sheds"] / attempts if attempts else 0.0
        level = {
            "rate_hz_per_session": rate_hz,
            "offered_rps": replay["offered_rps"],
            "achieved_rps": replay["achieved_rps"],
            "sheds": replay["sheds"],
            "shed_fraction": shed_fraction,
            "p99_s": {
                name: doc["p99_s"] for name, doc in replay["summary"]["classes"].items()
            },
        }
        levels.append(level)
        if shed_fraction <= MAX_SHED_FRACTION:
            saturation_rps = replay["offered_rps"]
        else:
            break
    return {
        "shed_fraction_threshold": MAX_SHED_FRACTION,
        "levels": levels,
        "saturation_offered_rps": saturation_rps,
        "saturated": levels[-1]["shed_fraction"] > MAX_SHED_FRACTION if levels else False,
    }


# -------------------------------------------------------------- degraded mode
class TimingAdapter:
    """Wraps a session adapter, recording closed-loop per-op latency.

    Latency is wall time around the whole adapter call — retries, backoff,
    and reconnects included — which is exactly what a degraded network costs
    the user, and what the degraded-mode p99 gate measures.
    """

    def __init__(self, inner, record) -> None:
        """Wrap ``inner``; ``record(op, seconds)`` receives every timing."""
        self.inner = inner
        self._record = record

    def explore(self, batch_size):
        """Explore, timed."""
        started = time.perf_counter()
        result = self.inner.explore(batch_size)
        self._record("explore", time.perf_counter() - started)
        return result

    def label(self, labels, finish):
        """Label, timed."""
        started = time.perf_counter()
        result = self.inner.label(labels, finish)
        self._record("label", time.perf_counter() - started)
        return result

    def search(self, clip, k):
        """Search, timed."""
        started = time.perf_counter()
        result = self.inner.search(clip, k)
        self._record("search", time.perf_counter() - started)
        return result

    def predict(self, vid, start, end):
        """Predict, timed."""
        started = time.perf_counter()
        result = self.inner.predict(vid, start, end)
        self._record("predict", time.perf_counter() - started)
        return result


def run_degraded_scenario(dataset, sessions: int, cycles: int, seed: int, faulty: bool) -> dict:
    """Closed-loop scripted replay through a ChaosProxy; returns latency stats.

    With ``faulty`` set, every :data:`FAULT_PERIOD`-th proxied request takes
    one of :data:`DEGRADED_FAULTS` (deterministic rotation); retry-enabled
    clients must absorb every fault.  The fault-free variant still routes
    through the proxy so both runs pay the same extra network hop.
    """
    import numpy as np

    if str(_CHAOS_DIR) not in sys.path:
        sys.path.insert(0, str(_CHAOS_DIR))
    from chaos import ChaosProxy

    names = _session_names(sessions)
    latencies: dict[str, list[float]] = {}
    counters = {"retries": 0, "reconnects": 0}
    failures: list[tuple[str, str]] = []
    lock = threading.Lock()

    def record(op: str, seconds: float) -> None:
        with lock:
            latencies.setdefault(op, []).append(seconds)

    with tempfile.TemporaryDirectory() as root:
        factory = CorpusSessionFactory(
            dataset, root, base_seed=seed, candidate_features=CANDIDATES
        )
        manager = SessionManager(factory, max_resident=sessions)
        thread = ServerThread(
            manager, ServingConfig(worker_threads=4, max_queue_depth=256, **BUDGETS)
        )
        host, port = thread.start()
        proxy = ChaosProxy(host, port)
        try:
            proxy_host, proxy_port = proxy.start()
            if faulty:
                # Upper bound on requests: one open plus every script step
                # per session, with headroom for the retries faults cause.
                budget = sessions * (cycles * 8 + 4)
                for index, ordinal in enumerate(
                    range(FAULT_PERIOD, budget, FAULT_PERIOD)
                ):
                    proxy.schedule(
                        DEGRADED_FAULTS[index % len(DEGRADED_FAULTS)], at=ordinal
                    )
            users = {
                name: ScriptedUser(name, seed + index, dataset.class_names, cycles=cycles)
                for index, name in enumerate(names)
            }

            def drive(name: str) -> None:
                try:
                    policy = RetryPolicy(
                        max_attempts=8, base_delay_s=0.02, max_delay_s=0.2, seed=seed
                    )
                    with ServingClient(
                        proxy_host, proxy_port, timeout=30.0, retry=policy
                    ) as client:
                        client.open(name)
                        adapter = TimingAdapter(
                            RemoteSessionAdapter(client, name), record
                        )
                        users[name].run(adapter)
                        with lock:
                            counters["retries"] += client.retries
                            counters["reconnects"] += client.reconnects
                except BaseException as exc:  # a fault survived all retries
                    with lock:
                        failures.append((name, f"{type(exc).__name__}: {exc}"))

            threads = [threading.Thread(target=drive, args=(name,)) for name in names]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(600)
            faults_fired = list(proxy.fired)
        finally:
            proxy.stop()
            thread.stop()

    merged = sorted(value for values in latencies.values() for value in values)
    stats = np.asarray(merged) if merged else np.asarray([0.0])
    return {
        "faulty": faulty,
        "ops": len(merged),
        "p50_s": float(np.percentile(stats, 50)),
        "p99_s": float(np.percentile(stats, 99)),
        "max_s": float(stats.max()),
        "per_class_p99_s": {
            op: float(np.percentile(np.asarray(values), 99))
            for op, values in sorted(latencies.items())
        },
        "faults_fired": faults_fired,
        "retries": counters["retries"],
        "reconnects": counters["reconnects"],
        "failed_after_retry": len(failures),
        "failures": failures[:3],
    }


def regression_verdicts(previous: dict | None, report: dict) -> dict:
    """Compare fault-free per-class p50/p99 against the last passing run's.

    Only comparable runs gate: the stored workload configuration must equal
    this run's (quick and full runs produce different workloads, so a
    ``--quick`` run is only ever judged against an earlier ``--quick`` run).
    """
    if not previous or previous.get("config") != report["config"]:
        return {"comparable": False, "regressions": []}
    regressions = []
    checked = []
    for request_class in ("explore", "label", "search", "predict"):
        old = (previous.get("slo_per_class") or {}).get(request_class)
        new = report["slo_per_class"].get(request_class)
        if not old or not new:
            continue
        for quantile in ("p50_s", "p99_s"):
            limit = old[quantile] * MAX_REGRESSION_RATIO + REGRESSION_SLACK_S
            entry = {
                "class": request_class,
                "quantile": quantile,
                "old_s": old[quantile],
                "new_s": new[quantile],
                "limit_s": limit,
            }
            checked.append(entry)
            if new[quantile] > limit:
                regressions.append(entry)
    return {"comparable": True, "checked": checked, "regressions": regressions}


# ----------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    """Run every gate; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke run (smaller workload)")
    parser.add_argument("--scenario-json", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.scenario_json is not None:
        # Subprocess mode: the JSON report on stdout IS the program output.
        sys.stdout.write(json.dumps(run_scenario(json.loads(args.scenario_json))) + "\n")
        return 0

    telemetry.configure_logging("info", stream=sys.stdout, fmt="%(message)s")
    if args.quick:
        resident, videos, cycles, rate_hz = 2, 10, 2, 2.0
        sweep_rates = [0.25, 1.0, 4.0]
        degraded_sessions, degraded_cycles = 3, 3
    else:
        resident, videos, cycles, rate_hz = 4, 14, 3, 2.0
        sweep_rates = [0.25, 1.0, 4.0, 16.0]
        degraded_sessions, degraded_cycles = 4, 4

    base = dict(
        videos=videos,
        cycles=cycles,
        rate_hz=rate_hz,
        workers=4,
        seed=23,
        identity_samples=3,
        max_resident=resident,
    )
    logger.info(f"== scenario K={resident} sessions, all resident ==")
    small = run_scenario_subprocess({**base, "sessions": resident})
    logger.info(
        f"requests {small['requests']}  achieved {small['achieved_rps']:.1f} rps  "
        f"peak RSS {small['peak_rss_kb'] / 1024:.1f} MB"
    )

    logger.info(f"== scenario 4K={4 * resident} sessions, {resident} resident (LRU) ==")
    large = run_scenario_subprocess({**base, "sessions": 4 * resident})
    logger.info(
        f"requests {large['requests']}  achieved {large['achieved_rps']:.1f} rps  "
        f"peak RSS {large['peak_rss_kb'] / 1024:.1f} MB  "
        f"evictions {large['manager']['evictions']}  restores {large['manager']['restores']}  "
        f"residency sheds {large['manager']['residency_sheds']}"
    )

    logger.info("== saturation sweep ==")
    # More sessions than queue slots, so overload is reachable: each scripted
    # session has at most one request in flight, and admission sheds only
    # once concurrent arrivals exceed the queue depth.
    sweep = sweep_saturation(
        bench_dataset(videos), sessions=6, cycles=2, rates=sweep_rates, seed=29
    )
    for level in sweep["levels"]:
        logger.info(
            f"offered {level['offered_rps']:.1f} rps  achieved {level['achieved_rps']:.1f} rps  "
            f"shed {level['shed_fraction']:.1%}"
        )

    logger.info("== degraded mode (10% injected network faults) ==")
    degraded_dataset = bench_dataset(videos)
    fault_free = run_degraded_scenario(
        degraded_dataset, degraded_sessions, degraded_cycles, seed=31, faulty=False
    )
    degraded = run_degraded_scenario(
        degraded_dataset, degraded_sessions, degraded_cycles, seed=31, faulty=True
    )
    logger.info(
        f"fault-free: {fault_free['ops']} ops  p50 {fault_free['p50_s'] * 1e3:.1f}ms  "
        f"p99 {fault_free['p99_s'] * 1e3:.1f}ms"
    )
    logger.info(
        f"degraded:   {degraded['ops']} ops  p50 {degraded['p50_s'] * 1e3:.1f}ms  "
        f"p99 {degraded['p99_s'] * 1e3:.1f}ms  "
        f"faults {len(degraded['faults_fired'])}  retries {degraded['retries']}  "
        f"reconnects {degraded['reconnects']}  "
        f"failed after retry {degraded['failed_after_retry']}"
    )

    rss_ratio = large["peak_rss_kb"] / small["peak_rss_kb"]
    # Memory the large scenario added per *extra named session* beyond the
    # resident set, and the resident envelope itself, both from measured RSS.
    sessions_per_gb = (
        4 * resident / (large["peak_rss_kb"] / (1024.0 * 1024.0))
        if large["peak_rss_kb"]
        else 0.0
    )
    report = {
        "config": base,
        "scenario_resident": small,
        "scenario_overcommitted": large,
        "rss_ratio": rss_ratio,
        "rss_ratio_gate": MAX_RSS_RATIO,
        "sessions_per_gb": sessions_per_gb,
        "saturation": sweep,
        "slo_per_class": large["slo"]["classes"],
        "degraded_mode": {
            "fault_period": FAULT_PERIOD,
            "fault_points": list(DEGRADED_FAULTS),
            "fault_free": fault_free,
            "degraded": degraded,
            "p99_ratio_gate": MAX_DEGRADED_P99_RATIO,
            "p99_slack_s": DEGRADED_P99_SLACK_S,
        },
    }
    previous = None
    if ARTIFACT.exists():
        try:
            previous = json.loads(ARTIFACT.read_text())
        except (OSError, json.JSONDecodeError):
            previous = None
    regression = regression_verdicts(previous, report)
    report["regression"] = {
        **regression,
        "max_ratio": MAX_REGRESSION_RATIO,
        "slack_s": REGRESSION_SLACK_S,
    }

    failures = 0
    logger.info("")
    logger.info("== gates ==")
    logger.info(
        f"bounded memory: {4 * resident} sessions / {resident} resident at "
        f"{rss_ratio:.3f}x the K-session RSS (gate: <= {MAX_RSS_RATIO}x)"
    )
    if rss_ratio > MAX_RSS_RATIO:
        failures += 1

    evictions = large["manager"]["evictions"]
    identical = all(entry["identical"] for entry in large["identity"])
    logger.info(
        f"eviction invisible: {evictions} evictions, "
        f"{sum(e['identical'] for e in large['identity'])}/{len(large['identity'])} "
        f"sampled sessions bit-identical to solo replays (gate: all, evictions > 0)"
    )
    if evictions == 0 or not identical or not large["identity"]:
        failures += 1

    classes = large["slo"]["classes"]
    complete = all(
        name in classes and classes[name]["count"] > 0 and "p99_s" in classes[name]
        for name in ("explore", "label", "search", "predict")
    )
    logger.info("per-class SLO accounting (open-loop latency, from scheduled arrival):")
    for name in REQUEST_CLASSES:
        logger.info(f"  {format_request_class(classes[name])}")
    if not complete:
        failures += 1

    degraded_limit = (
        fault_free["p99_s"] * MAX_DEGRADED_P99_RATIO + DEGRADED_P99_SLACK_S
    )
    logger.info(
        f"degraded mode: p99 {degraded['p99_s'] * 1e3:.1f}ms vs limit "
        f"{degraded_limit * 1e3:.1f}ms "
        f"({MAX_DEGRADED_P99_RATIO}x fault-free + {DEGRADED_P99_SLACK_S * 1e3:.0f}ms), "
        f"{degraded['failed_after_retry']} ops failed after retry (gate: 0, "
        f"faults fired: {len(degraded['faults_fired'])} > 0)"
    )
    if (
        degraded["p99_s"] > degraded_limit
        or degraded["failed_after_retry"] > 0
        or not degraded["faults_fired"]
    ):
        failures += 1

    if regression["comparable"]:
        worst = regression["regressions"]
        logger.info(
            f"fault-free regression vs the last passing run: "
            f"{len(worst)} violations over {len(regression['checked'])} checks "
            f"(gate: p50/p99 <= {MAX_REGRESSION_RATIO}x old + "
            f"{REGRESSION_SLACK_S * 1e3:.0f}ms)"
        )
        for entry in worst:
            logger.info(
                f"  REGRESSED {entry['class']}.{entry['quantile']}: "
                f"{entry['new_s'] * 1e3:.1f}ms > limit {entry['limit_s'] * 1e3:.1f}ms "
                f"(was {entry['old_s'] * 1e3:.1f}ms)"
            )
        if worst:
            failures += 1
    else:
        logger.info(
            "fault-free regression gate skipped: no passing run's artifact from "
            "this workload configuration"
        )

    logger.info("")
    logger.info(f"sessions-per-GB (overcommitted scenario): {sessions_per_gb:.1f}")
    if sweep["saturation_offered_rps"]:
        knee = f"{sweep['saturation_offered_rps']:.1f} rps offered still served"
    else:
        knee = "saturated below the lowest swept rate"
    state = "knee found" if sweep["saturated"] else "knee not crossed at swept rates"
    logger.info(f"saturation: {knee} ({state})")
    if failures:
        logger.info(f"artifact not written (a failing run is not a baseline): {ARTIFACT}")
        logger.info(f"FAIL ({failures} gate(s) violated)")
        return 1
    ARTIFACT.write_text(json.dumps(report, indent=2))
    logger.info(f"artifact: {ARTIFACT}")
    logger.info("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
