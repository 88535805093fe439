"""Command-line interface for the VOCALExplore reproduction.

Provides four subcommands:

* ``repro-vocal datasets`` — print the Table 2 dataset statistics.
* ``repro-vocal explore``  — run an interactive-style labeling session with a
  simulated oracle user on one of the catalog datasets and print the per-step
  F1 / latency trajectory.
* ``repro-vocal search``   — "find clips like this": similarity search over
  the feature store by an exact nearest-neighbour scan.
* ``repro-vocal experiment`` — regenerate one of the paper's tables or figures
  and print its rows.
* ``repro-vocal report`` — render the telemetry report of a traced run
  (metrics tables plus per-iteration SLO verdicts).
* ``repro-vocal serve`` — host many named exploration sessions over TCP
  (newline-delimited JSON; see ``docs/SERVING.md``), with LRU eviction to a
  durable state root and per-request-class SLO accounting.

Example::

    python -m repro.cli explore --dataset k20-skew --steps 20 --strategy ve-full
    python -m repro.cli explore --dataset deer --trace-dir /tmp/trace --slo 5.0
    python -m repro.cli report --trace-dir /tmp/trace
    python -m repro.cli search --dataset deer --vid 0 --start 0 --end 1 -k 5
    python -m repro.cli experiment --name fig3 --dataset k20-skew --steps 10
    python -m repro.cli serve --dataset deer --root /tmp/sessions --max-resident 4
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Sequence

from . import telemetry
from .datasets.catalog import DATASET_NAMES
from .experiments import (
    format_series,
    format_table,
    run_acquisition_comparison,
    run_end_to_end,
    run_feature_quality,
    run_label_noise,
    run_scheduler_comparison,
    run_ve_select_comparison,
    selection_correctness,
)
from .experiments.runner import RunnerConfig, SessionRunner
from .experiments.sensitivity import run_sensitivity_sweep
from .experiments.tables import format_table2, format_table3

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-vocal",
        description="VOCALExplore reproduction: pay-as-you-go video exploration",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="module-logger verbosity on stderr (default: warning)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser("datasets", help="print dataset statistics (Table 2)")
    datasets.add_argument("--scale", choices=("scaled", "paper"), default="scaled")

    explore = subparsers.add_parser("explore", help="run a simulated labeling session")
    explore.add_argument("--dataset", choices=DATASET_NAMES, default="deer")
    explore.add_argument("--steps", type=int, default=20)
    explore.add_argument("--batch-size", type=int, default=5)
    explore.add_argument(
        "--strategy", choices=("serial", "ve-partial", "ve-full"), default="ve-full"
    )
    explore.add_argument("--feature", default=None, help="fix the feature extractor")
    explore.add_argument(
        "--acquisition",
        choices=("random", "cluster-margin", "coreset"),
        default=None,
        help="fix the acquisition function instead of VE-sample",
    )
    explore.add_argument("--label-noise", type=float, default=0.0)
    explore.add_argument(
        "--no-warm-start",
        dest="warm_start",
        action="store_false",
        help="disable the incremental training engine (warm-start retrains, "
        "cached design matrices, fold-reuse cross-validation) and train every "
        "model cold from scratch",
    )
    explore.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for durable checkpoints: store writes are journaled "
        "(write-ahead, fsynced) and full snapshots enable --resume",
    )
    explore.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="take an automatic snapshot every N finished steps "
        "(requires --checkpoint-dir; 0 = never)",
    )
    explore.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run from --checkpoint-dir's last valid "
        "snapshot and continue to --steps",
    )
    explore.add_argument(
        "--trace-dir", default=None,
        help="write telemetry to this directory: trace.jsonl (structured "
        "spans), chrome_trace.json (load in chrome://tracing), metrics.json",
    )
    explore.add_argument(
        "--slo", type=float, default=None, metavar="SECONDS",
        help="per-iteration visible-latency budget; violations are counted "
        "in the report and recorded in the trace",
    )
    explore.add_argument("--seed", type=int, default=0)

    search = subparsers.add_parser("search", help='similarity search ("find clips like this")')
    search.add_argument("--dataset", choices=DATASET_NAMES, default="deer")
    search.add_argument("--vid", type=int, default=None, help="query video id (default: first)")
    search.add_argument("--start", type=float, default=0.0)
    search.add_argument("--end", type=float, default=1.0)
    search.add_argument("-k", "--k", type=int, default=5, help="number of neighbours")
    search.add_argument(
        "--pool-videos", type=int, default=50,
        help="videos whose features form the searchable pool",
    )
    search.add_argument("--feature", default=None, help="fix the feature extractor")
    search.add_argument("--seed", type=int, default=0)

    experiment = subparsers.add_parser("experiment", help="regenerate a table or figure")
    experiment.add_argument(
        "--name",
        required=True,
        choices=(
            "table2", "table3", "table4", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9",
            "sensitivity",
        ),
    )
    experiment.add_argument("--dataset", choices=DATASET_NAMES, default="deer")
    experiment.add_argument("--steps", type=int, default=10)
    experiment.add_argument("--seed", type=int, default=0)

    report = subparsers.add_parser(
        "report", help="render the telemetry report of a traced run"
    )
    report.add_argument(
        "--trace-dir", required=True,
        help="directory a previous run wrote with explore --trace-dir",
    )

    serve = subparsers.add_parser(
        "serve", help="host many named exploration sessions over TCP"
    )
    serve.add_argument("--dataset", choices=DATASET_NAMES, default="deer")
    serve.add_argument(
        "--root", required=True,
        help="directory holding each session's durable checkpoint state; "
        "sessions found here are served again after a restart",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 = OS-assigned")
    serve.add_argument(
        "--max-resident", type=int, default=8,
        help="sessions kept in memory before LRU eviction pages the coldest "
        "to disk (restored on their next request)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=0,
        help="total named sessions admitted (0 = unbounded)",
    )
    serve.add_argument(
        "--max-overshoot", type=int, default=None,
        help="extra residents tolerated when every resident session is "
        "mid-iteration; past max-resident + max-overshoot, admissions are "
        "shed for the client to retry (default: unbounded overshoot)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="in-flight requests beyond which new ones are shed",
    )
    serve.add_argument("--workers", type=int, default=4, help="request worker threads")
    for request_class in ("explore", "label", "search", "predict"):
        serve.add_argument(
            f"--{request_class}-slo", type=float, default=None, metavar="SECONDS",
            help=f"wall-clock SLO budget for {request_class} requests",
        )
        serve.add_argument(
            f"--{request_class}-deadline", type=float, default=None,
            metavar="SECONDS",
            help=f"wall-clock deadline for {request_class} requests; late "
            "work is cancelled cooperatively and answered with a typed "
            "DeadlineExceededError (safe to retry)",
        )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown bound: how long in-flight requests may "
        "finish while new ones are shed, before sessions are checkpointed",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop gracefully after this long (default: run until a client "
        "sends shutdown or the process is interrupted)",
    )
    serve.add_argument("--seed", type=int, default=0)

    return parser


def _run_datasets(args: argparse.Namespace) -> str:
    return format_table2(scale=args.scale)


def _run_explore(args: argparse.Namespace) -> str:
    from .datasets.catalog import build_dataset

    dataset = build_dataset(args.dataset, seed=args.seed)
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    config = RunnerConfig(
        num_steps=args.steps,
        batch_size=args.batch_size,
        strategy=args.strategy,
        force_feature=args.feature,
        force_acquisition=args.acquisition,
        label_noise=args.label_noise,
        warm_start=args.warm_start,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        trace_dir=args.trace_dir,
        visible_latency_slo_s=args.slo,
        seed=args.seed,
    )
    runner = SessionRunner(dataset, config)
    slo_verdicts = []
    try:
        result = runner.run()
        slo_verdicts = runner.vocal.session.slo_results()
    finally:
        runner.close()
    resume_note = ""
    if runner.recovery is not None:
        resume_note = (
            f"resumed from generation {runner.recovery.generation} "
            f"at step {runner.recovery.resumed_iteration}"
            + (
                f" ({len(runner.recovery.tail_labels)} durable tail labels re-derived)"
                if runner.recovery.tail_labels
                else ""
            )
        )
    rows = [
        {
            "step": step.step,
            "labels": step.num_labels,
            "acquisition": step.acquisition,
            "feature": step.feature,
            "f1": step.f1,
            "smax": step.smax,
            "visible_latency_s": step.visible_latency,
        }
        for step in result.steps
    ]
    lines = [
        format_table(rows, title=f"Exploration of {args.dataset} ({args.strategy})"),
        "",
        f"cumulative visible latency: {result.cumulative_visible_latency:.1f} s",
        f"selected feature: {result.selected_feature or '(not converged)'}",
    ]
    if args.slo is not None:
        violations = [v for v in slo_verdicts if v.violated]
        lines.append(
            f"SLO ({args.slo:g} s/iteration): {len(violations)} of "
            f"{len(slo_verdicts)} iterations violated"
        )
        for verdict in violations:
            lines.append(
                f"  iteration {verdict.iteration}: {verdict.visible_latency:.2f} s "
                f"(over budget by {verdict.overshoot:.2f} s)"
            )
    if args.trace_dir is not None:
        lines.append(f"telemetry written to {args.trace_dir}")
    if resume_note:
        lines.append(resume_note)
    return "\n".join(lines)


def _run_report(args: argparse.Namespace) -> str:
    try:
        doc = telemetry.load_run(args.trace_dir)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from exc
    return telemetry.render_report(doc["metrics"], doc.get("slo"), doc.get("label", "run"))


def _run_search(args: argparse.Namespace) -> str:
    from .config import ALMConfig, VocalExploreConfig
    from .core.api import VOCALExplore
    from .datasets.catalog import build_dataset

    dataset = build_dataset(args.dataset, seed=args.seed)
    config = VocalExploreConfig(seed=args.seed).with_updates(
        alm=ALMConfig(candidate_pool_size=args.pool_videos),
    )
    vocal = VOCALExplore.for_dataset(dataset, config=config)
    vid = args.vid if args.vid is not None else dataset.train_corpus.vids()[0]

    hits = vocal.search((vid, args.start, args.end), k=args.k, feature_name=args.feature)
    feature = args.feature or vocal.current_feature()
    rows = [
        {
            "rank": rank,
            "vid": hit.vid,
            "start": round(hit.start, 2),
            "end": round(hit.end, 2),
            "sq_distance": round(hit.distance, 4),
        }
        for rank, hit in enumerate(hits, start=1)
    ]
    lines = [
        format_table(
            rows,
            title=(
                f"Clips like video {vid} [{args.start:.1f}s, {args.end:.1f}s] "
                f"({feature} features, exact search)"
            ),
        ),
        "",
        f"visible latency charged: {vocal.cumulative_visible_latency():.2f} s",
    ]
    return "\n".join(lines)


def _run_serve(args: argparse.Namespace) -> str:
    from .config import ServingConfig
    from .datasets.catalog import build_dataset
    from .serving import CorpusSessionFactory, SessionManager, ServerThread
    from .telemetry.slo import format_request_class

    serving = ServingConfig(
        host=args.host,
        port=args.port,
        max_resident_sessions=args.max_resident,
        max_sessions=args.max_sessions,
        max_queue_depth=args.queue_depth,
        worker_threads=args.workers,
        explore_slo_s=args.explore_slo,
        label_slo_s=args.label_slo,
        search_slo_s=args.search_slo,
        predict_slo_s=args.predict_slo,
        explore_deadline_s=args.explore_deadline,
        label_deadline_s=args.label_deadline,
        search_deadline_s=args.search_deadline,
        predict_deadline_s=args.predict_deadline,
        drain_timeout_s=args.drain_timeout,
    )
    dataset = build_dataset(args.dataset, seed=args.seed)
    factory = CorpusSessionFactory(dataset, args.root, base_seed=args.seed)
    manager = SessionManager(
        factory,
        max_resident=serving.max_resident_sessions,
        max_sessions=serving.max_sessions,
        max_overshoot=args.max_overshoot,
    )
    thread = ServerThread(manager, serving)
    host, port = thread.start()
    sys.stdout.write(
        f"serving dataset {args.dataset} on {host}:{port} "
        f"(state root: {args.root}, {len(factory.list_sessions())} sessions on disk)\n"
    )
    sys.stdout.flush()
    try:
        thread.wait(args.duration)
    except KeyboardInterrupt:
        sys.stdout.write("interrupted; checkpointing sessions\n")
    finally:
        thread.stop()
    stats = manager.stats()
    slo = thread.server.slo_summary()
    lines = [
        "server stopped; every session checkpointed",
        f"requests served: {slo['requests']} ({slo['violations']} SLO violations)",
        f"sessions on disk: {stats['sessions_on_disk']} "
        f"(creates {stats['creates']}, restores {stats['restores']}, "
        f"evictions {stats['evictions']})",
    ]
    for doc in slo["classes"].values():
        if doc["count"]:
            lines.append(f"  {format_request_class(doc)}")
    return "\n".join(lines)


def _run_experiment(args: argparse.Namespace) -> str:
    name = args.name
    if name == "table2":
        return format_table2()
    if name == "table3":
        return format_table3()
    if name == "table4":
        results = selection_correctness(
            (args.dataset,), horizons=(20, 50), num_steps=args.steps, seeds=(args.seed, args.seed + 1)
        )
        return format_table([r.row() for r in results], title="Table 4 — feature selection")
    if name == "fig2":
        return run_end_to_end(args.dataset, num_steps=args.steps, seed=args.seed).format()
    if name == "fig3":
        result = run_acquisition_comparison(args.dataset, num_steps=args.steps, seed=args.seed)
        series = format_series({m: c.f1 for m, c in result.curves.items()}, title="macro F1")
        return result.format() + "\n\n" + series
    if name == "fig4":
        return run_feature_quality(args.dataset, num_steps=args.steps, seed=args.seed).format()
    if name == "fig7":
        return run_ve_select_comparison(args.dataset, num_steps=args.steps, seed=args.seed).format()
    if name == "fig8":
        return run_scheduler_comparison(args.dataset, num_steps=args.steps, seed=args.seed).format()
    if name == "fig9":
        return run_label_noise(args.dataset, num_steps=args.steps, seed=args.seed).format()
    if name == "sensitivity":
        return run_sensitivity_sweep(args.dataset, num_steps=args.steps, seed=args.seed).format()
    raise ValueError(f"unknown experiment {name!r}")


_HANDLERS: dict[str, Callable[[argparse.Namespace], str]] = {
    "datasets": _run_datasets,
    "explore": _run_explore,
    "search": _run_search,
    "experiment": _run_experiment,
    "report": _run_report,
    "serve": _run_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry.configure_logging(args.log_level)
    output = _HANDLERS[args.command](args)
    sys.stdout.write(output + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
