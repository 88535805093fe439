"""Figure 2: end-to-end model quality vs cumulative visible latency.

The paper's Figure 2 runs 100 Explore steps on Deer, K20, and K20 (skew) and
plots, for each method, the average F1 against the cumulative user-visible
latency (log scale):

* ``Random`` — random sampling with a fixed feature, serial schedule (one point
  per candidate feature).
* ``Coreset-PP`` — Coreset sampling with a fixed feature, serial schedule, and
  the cost of preprocessing every video's features up front.
* ``VE-lazy (X)`` — full VE-sample + VE-select but a serial schedule and a
  candidate pool grown by X videos per iteration, for X in {10, 50, 100}.
* ``VE-full`` — all the Task Scheduler optimisations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasets.catalog import build_dataset
from ..datasets.synthetic import Dataset
from ..features.pretrained import DEFAULT_EXTRACTOR_NAMES
from .reporting import format_table
from .runner import RunnerConfig, RunResult, SessionRunner

__all__ = ["EndToEndPoint", "EndToEndResult", "run_end_to_end", "DEFAULT_FIG2_DATASETS"]

DEFAULT_FIG2_DATASETS = ("deer", "k20", "k20-skew")

#: Extractors used for the fixed-feature baselines (Random / Coreset-PP).
_BASELINE_FEATURES = tuple(name for name in DEFAULT_EXTRACTOR_NAMES if name != "random")


@dataclass(frozen=True)
class EndToEndPoint:
    """One (method, feature) point of Figure 2."""

    dataset: str
    method: str
    feature: str
    mean_f1: float
    final_f1: float
    cumulative_visible_latency: float


@dataclass
class EndToEndResult:
    """All points for one dataset."""

    dataset: str
    points: list[EndToEndPoint] = field(default_factory=list)

    def rows(self) -> list[dict[str, object]]:
        return [
            {
                "dataset": point.dataset,
                "method": point.method,
                "feature": point.feature,
                "mean_f1": point.mean_f1,
                "final_f1": point.final_f1,
                "visible_latency_s": point.cumulative_visible_latency,
            }
            for point in self.points
        ]

    def ve_full_point(self) -> EndToEndPoint | None:
        for point in self.points:
            if point.method == "ve-full":
                return point
        return None

    def format(self) -> str:
        return format_table(self.rows(), title=f"Figure 2 — {self.dataset}")


def _point_from_run(dataset: str, method: str, feature: str, run: RunResult) -> EndToEndPoint:
    return EndToEndPoint(
        dataset=dataset,
        method=method,
        feature=feature,
        mean_f1=run.mean_f1(),
        final_f1=run.final_f1,
        cumulative_visible_latency=run.cumulative_visible_latency,
    )


def run_end_to_end(
    dataset: Dataset | str,
    num_steps: int = 30,
    lazy_pool_sizes: tuple[int, ...] = (10, 50, 100),
    baseline_features: tuple[str, ...] = _BASELINE_FEATURES,
    seed: int = 0,
) -> EndToEndResult:
    """Reproduce one dataset's panel of Figure 2.

    The paper uses ``num_steps=100``; the default here is smaller so the full
    harness runs in CPU-minutes.  Pass ``num_steps=100`` for the paper-scale
    configuration.
    """
    dataset = build_dataset(dataset, seed=seed) if isinstance(dataset, str) else dataset
    result = EndToEndResult(dataset=dataset.name)

    for feature in baseline_features:
        random_run = SessionRunner(
            dataset,
            RunnerConfig(
                num_steps=num_steps,
                strategy="serial",
                force_acquisition="random",
                force_feature=feature,
                seed=seed,
            ),
        ).run()
        result.points.append(_point_from_run(dataset.name, "random", feature, random_run))

        coreset_run = SessionRunner(
            dataset,
            RunnerConfig(
                num_steps=num_steps,
                strategy="serial",
                force_acquisition="coreset",
                active_acquisition="coreset",
                force_feature=feature,
                preprocess_all=True,
                seed=seed,
            ),
        ).run()
        result.points.append(_point_from_run(dataset.name, "coreset-pp", feature, coreset_run))

    for pool_size in lazy_pool_sizes:
        lazy_run = SessionRunner(
            dataset,
            RunnerConfig(
                num_steps=num_steps,
                strategy="serial",
                candidate_pool_size=pool_size,
                seed=seed,
            ),
        ).run()
        result.points.append(
            _point_from_run(dataset.name, f"ve-lazy(X={pool_size})", "ve-select", lazy_run)
        )

    full_run = SessionRunner(
        dataset,
        RunnerConfig(num_steps=num_steps, strategy="ve-full", seed=seed),
    ).run()
    result.points.append(_point_from_run(dataset.name, "ve-full", "ve-select", full_run))
    return result
