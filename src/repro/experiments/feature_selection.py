"""Table 4 and Figures 5-7: rising-bandit feature selection.

* **Table 4** — fraction of runs in which the bandit picks a "correct" feature
  (per the Figure 4 ranking) at horizons T=20 and T=50.
* **Figure 5** — median labeling step at which the bandit converges to a
  single feature.
* **Figure 6** — the upper/lower bound trajectories of each arm over time.
* **Figure 7** — macro F1 of VE-select (full feature selection) compared with
  the empirically best and worst fixed feature and with VE-sample on the best
  feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

from ..datasets.catalog import build_dataset
from ..datasets.synthetic import Dataset
from .feature_quality import run_feature_quality
from .reporting import format_table
from .runner import RunnerConfig, RunResult, SessionRunner

__all__ = [
    "SelectionTrial",
    "SelectionCorrectness",
    "run_selection_trials",
    "selection_correctness",
    "median_selection_step",
    "bound_trace",
    "VESelectComparison",
    "run_ve_select_comparison",
]


@dataclass(frozen=True)
class SelectionTrial:
    """Outcome of one feature-selection run."""

    dataset: str
    seed: int
    horizon: int
    selected_feature: str | None
    selected_at_step: int | None
    correct: bool


@dataclass
class SelectionCorrectness:
    """Aggregated Table 4 cell: correctness per (dataset, horizon)."""

    dataset: str
    horizon: int
    trials: list[SelectionTrial] = field(default_factory=list)

    @property
    def correctness(self) -> float:
        """Fraction of trials that picked a correct feature."""
        if not self.trials:
            return 0.0
        return sum(1 for trial in self.trials if trial.correct) / len(self.trials)

    @property
    def median_step(self) -> float | None:
        """Median convergence step among converged trials (Figure 5)."""
        steps = [trial.selected_at_step for trial in self.trials if trial.selected_at_step]
        return float(median(steps)) if steps else None

    def row(self) -> dict[str, object]:
        return {
            "dataset": self.dataset,
            "horizon": self.horizon,
            "correctness": self.correctness,
            "median_selection_step": self.median_step,
            "trials": len(self.trials),
        }


def run_selection_trials(
    dataset: Dataset | str,
    horizon: int = 50,
    num_steps: int = 40,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> SelectionCorrectness:
    """Run feature selection with several seeds and aggregate correctness."""
    base = build_dataset(dataset, seed=0) if isinstance(dataset, str) else dataset
    name = base.name
    result = SelectionCorrectness(dataset=name, horizon=horizon)
    for seed in seeds:
        trial_dataset = build_dataset(name, seed=seed) if isinstance(dataset, str) else dataset
        run = SessionRunner(
            trial_dataset,
            RunnerConfig(
                num_steps=num_steps,
                strategy="ve-full",
                bandit_horizon=horizon,
                seed=seed,
            ),
        ).run()
        selected = run.selected_feature
        correct_set = set(trial_dataset.correct_features)
        result.trials.append(
            SelectionTrial(
                dataset=name,
                seed=seed,
                horizon=horizon,
                selected_feature=selected,
                selected_at_step=run.feature_selected_at_step,
                correct=selected in correct_set if selected is not None else False,
            )
        )
    return result


def selection_correctness(
    datasets: tuple[str, ...],
    horizons: tuple[int, ...] = (20, 50),
    num_steps: int = 40,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> list[SelectionCorrectness]:
    """Reproduce Table 4 (and the Figure 5 medians) across datasets and horizons."""
    results = []
    for name in datasets:
        for horizon in horizons:
            results.append(
                run_selection_trials(name, horizon=horizon, num_steps=num_steps, seeds=seeds)
            )
    return results


def median_selection_step(results: list[SelectionCorrectness]) -> list[dict[str, object]]:
    """Figure 5 rows: median convergence step per dataset and horizon."""
    return [result.row() for result in results]


def bound_trace(
    dataset: Dataset | str,
    num_steps: int = 40,
    horizon: int = 50,
    seed: int = 0,
) -> list[dict[str, object]]:
    """Figure 6 rows: per-step lower/upper bounds of every bandit arm."""
    dataset = build_dataset(dataset, seed=seed) if isinstance(dataset, str) else dataset
    runner = SessionRunner(
        dataset,
        RunnerConfig(num_steps=num_steps, strategy="ve-full", bandit_horizon=horizon, seed=seed),
    )
    runner.run()
    trace = runner.vocal.session.alm.bandit.bound_trace()
    return [
        {
            "step": snapshot.step,
            "feature": snapshot.arm,
            "lower_bound": snapshot.lower_bound,
            "upper_bound": snapshot.upper_bound,
        }
        for snapshot in trace
    ]


@dataclass
class VESelectComparison:
    """Figure 7 data: VE-select vs best / worst fixed strategies."""

    dataset: str
    ve_select_f1: tuple[float, ...]
    best_feature: str
    best_f1: tuple[float, ...]
    worst_feature: str
    worst_f1: tuple[float, ...]
    ve_sample_best_f1: tuple[float, ...]

    def rows(self) -> list[dict[str, object]]:
        return [
            {
                "dataset": self.dataset,
                "method": "ve-select",
                "feature": "dynamic",
                "final_f1": self.ve_select_f1[-1] if self.ve_select_f1 else 0.0,
            },
            {
                "dataset": self.dataset,
                "method": "best",
                "feature": self.best_feature,
                "final_f1": self.best_f1[-1] if self.best_f1 else 0.0,
            },
            {
                "dataset": self.dataset,
                "method": "worst",
                "feature": self.worst_feature,
                "final_f1": self.worst_f1[-1] if self.worst_f1 else 0.0,
            },
            {
                "dataset": self.dataset,
                "method": "ve-sample-best",
                "feature": self.best_feature,
                "final_f1": self.ve_sample_best_f1[-1] if self.ve_sample_best_f1 else 0.0,
            },
        ]

    def format(self) -> str:
        return format_table(self.rows(), title=f"Figure 7 — {self.dataset}")


def run_ve_select_comparison(
    dataset: Dataset | str,
    num_steps: int = 30,
    seed: int = 0,
    label_noise: float = 0.0,
) -> VESelectComparison:
    """Reproduce one dataset's Figure 7 panel (or Figure 9 with label noise)."""
    dataset = build_dataset(dataset, seed=seed) if isinstance(dataset, str) else dataset

    quality = run_feature_quality(
        dataset, num_steps=num_steps, include_concat=False, seed=seed
    )
    # Exclude the Random extractor, as the paper does, when picking best/worst.
    ranking = [name for name in quality.ranking() if name != "random"]
    best_feature = ranking[0]
    worst_feature = ranking[-1]

    ve_select_run = SessionRunner(
        dataset,
        RunnerConfig(
            num_steps=num_steps, strategy="ve-full", seed=seed, label_noise=label_noise
        ),
    ).run()
    ve_sample_best_run = SessionRunner(
        dataset,
        RunnerConfig(
            num_steps=num_steps,
            strategy="ve-full",
            force_feature=best_feature,
            seed=seed,
            label_noise=label_noise,
        ),
    ).run()

    return VESelectComparison(
        dataset=dataset.name,
        ve_select_f1=tuple(ve_select_run.f1_series()),
        best_feature=best_feature,
        best_f1=quality.curves[best_feature].f1,
        worst_feature=worst_feature,
        worst_f1=quality.curves[worst_feature].f1,
        ve_sample_best_f1=tuple(ve_sample_best_run.f1_series()),
    )
