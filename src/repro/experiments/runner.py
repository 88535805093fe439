"""Common experiment loop.

Every figure and table in the paper's evaluation reduces to the same loop:
run a sequence of ``Explore(B=5, t=1)`` calls against an oracle user, record
per-step macro F1 on the held-out evaluation set, label diversity (S_max), and
user-visible latency.  :class:`SessionRunner` packages that loop with the
knobs the individual experiments vary — scheduling strategy, fixed vs dynamic
acquisition, fixed vs dynamic feature, candidate-pool size X, label noise, and
optional full preprocessing (the "PP" baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..config import (
    ALMConfig,
    ModelConfig,
    SchedulerConfig,
    TelemetryConfig,
    VocalExploreConfig,
)
from ..core.api import VOCALExplore
from ..core.oracle import NoisyOracleUser, OracleUser
from ..datasets.synthetic import Dataset
from ..exceptions import ExperimentError
from ..scheduler.tasks import Task, TaskKind
from .evaluation import ModelEvaluator

__all__ = ["RunnerConfig", "StepMetrics", "RunResult", "SessionRunner", "run_session"]


@dataclass(frozen=True)
class RunnerConfig:
    """Knobs for one experiment run."""

    #: Explore batch size B and clip duration t.
    batch_size: int = 5
    clip_duration: float = 1.0
    #: Number of Explore iterations to run.
    num_steps: int = 30
    #: Scheduling strategy: "serial", "ve-partial", or "ve-full".
    strategy: str = "ve-full"
    #: Fixed acquisition ("random", "cluster-margin", "coreset") or None for VE-sample.
    force_acquisition: str | None = None
    #: Skew test when acquisition is dynamic: "anderson-darling" or "frequency".
    skew_test: str = "anderson-darling"
    #: Active acquisition VE-sample switches to: "cluster-margin" or "coreset".
    active_acquisition: str = "cluster-margin"
    #: Fixed feature extractor, or None for rising-bandit feature selection.
    force_feature: str | None = None
    #: Candidate extractors considered by the bandit (None = all five).
    candidate_features: tuple[str, ...] | None = None
    #: Candidate-pool growth per iteration when lazily switching to AL (X).
    candidate_pool_size: int = 50
    #: Fraction of oracle labels randomly corrupted (Section 5.5).
    label_noise: float = 0.0
    #: Extract every candidate feature from every video up front ("PP" baselines).
    preprocess_all: bool = False
    #: Rising-bandit horizon T.
    bandit_horizon: int = 50
    #: Simulated seconds the user takes to label one clip.
    user_labeling_time: float = 10.0
    #: Evaluate held-out F1 every this many steps (1 = every step).
    evaluate_every: int = 1
    #: Incremental training engine (warm-start retrains, cached design
    #: matrices, fold-reuse cross-validation); False restores the original
    #: cold-start training paths.
    warm_start: bool = True
    #: Durable-checkpoint directory (None disables journaling/snapshots).
    checkpoint_dir: str | None = None
    #: Automatic snapshot every N finished steps (0 = never).
    checkpoint_every: int = 0
    #: Resume from ``checkpoint_dir`` before running (continues an
    #: interrupted run from its last durable checkpoint).
    resume: bool = False
    #: Telemetry trace output directory (None leaves tracing off).
    trace_dir: str | None = None
    #: Per-iteration visible-latency SLO budget in seconds (None = no SLO).
    visible_latency_slo_s: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class StepMetrics:
    """Metrics recorded after one Explore + label iteration."""

    step: int
    num_labels: int
    f1: float
    smax: float
    visible_latency: float
    cumulative_visible_latency: float
    acquisition: str
    feature: str
    active_candidates: tuple[str, ...]
    skew_p_value: float | None = None


@dataclass
class RunResult:
    """Full trajectory of one run."""

    dataset: str
    config: RunnerConfig
    steps: list[StepMetrics] = field(default_factory=list)
    preprocessing_latency: float = 0.0
    selected_feature: str | None = None
    feature_selected_at_step: int | None = None

    @property
    def final_f1(self) -> float:
        """F1 at the last evaluated step (0.0 when nothing was evaluated)."""
        return self.steps[-1].f1 if self.steps else 0.0

    def mean_f1(self, last_n: int | None = None) -> float:
        """Mean F1 over the trajectory (optionally only the last ``last_n`` steps)."""
        scores = [s.f1 for s in self.steps]
        if last_n is not None:
            scores = scores[-last_n:]
        return sum(scores) / len(scores) if scores else 0.0

    @property
    def cumulative_visible_latency(self) -> float:
        """Total visible latency including any preprocessing latency."""
        last = self.steps[-1].cumulative_visible_latency if self.steps else 0.0
        return last + self.preprocessing_latency

    def f1_series(self) -> list[float]:
        return [s.f1 for s in self.steps]

    def smax_series(self) -> list[float]:
        return [s.smax for s in self.steps]


class SessionRunner:
    """Builds a VOCALExplore instance for a dataset and drives the labeling loop."""

    def __init__(self, dataset: Dataset, config: RunnerConfig | None = None) -> None:
        self.dataset = dataset
        self.config = config if config is not None else RunnerConfig()
        self.evaluator = ModelEvaluator(dataset, seed=self.config.seed)
        self.vocal = self._build_vocal()
        self.oracle = self._build_oracle()
        #: Recovery report when this runner resumed an interrupted run.
        self.recovery = None
        if self.config.checkpoint_dir is not None:
            # Checkpoint the oracle's RNG alongside the session so a noisy
            # oracle resumes mid-stream instead of replaying its corruption.
            self.vocal.session.extra_state_provider = self._oracle_extra_state
            if self.config.resume:
                self.recovery = self.vocal.resume()
                extras = self.recovery.extra_state
                if isinstance(self.oracle, NoisyOracleUser) and extras and "oracle_rng" in extras:
                    self.oracle._rng.bit_generator.state = extras["oracle_rng"]

    def _oracle_extra_state(self) -> dict:
        if isinstance(self.oracle, NoisyOracleUser):
            return {"oracle_rng": self.oracle._rng.bit_generator.state}
        return {}

    def close(self) -> None:
        """Close the session: commit its journal and end its telemetry run."""
        self.vocal.close()

    # ------------------------------------------------------------------- build
    def _build_vocal(self) -> VOCALExplore:
        cfg = self.config
        system_config = VocalExploreConfig(
            alm=ALMConfig(
                skew_test=cfg.skew_test,
                active_acquisition=cfg.active_acquisition,
                candidate_pool_size=cfg.candidate_pool_size,
            ),
            scheduler=SchedulerConfig(
                strategy=cfg.strategy,
                user_labeling_time=cfg.user_labeling_time,
                checkpoint_dir=cfg.checkpoint_dir,
                checkpoint_every=cfg.checkpoint_every,
            ),
            model=ModelConfig(warm_start=cfg.warm_start),
            telemetry=TelemetryConfig(
                enabled=cfg.trace_dir is not None or cfg.visible_latency_slo_s is not None,
                trace_dir=cfg.trace_dir,
                visible_latency_slo_s=cfg.visible_latency_slo_s,
            ),
            seed=cfg.seed,
        )
        system_config = system_config.with_updates(
            feature_selection=replace(
                system_config.feature_selection, horizon=cfg.bandit_horizon
            )
        )
        candidates: Sequence[str] | None
        if cfg.force_feature is not None:
            candidates = [cfg.force_feature]
        elif cfg.candidate_features is not None:
            candidates = list(cfg.candidate_features)
        else:
            candidates = None
        vocal = VOCALExplore.for_corpus(
            self.dataset.train_corpus,
            vocabulary=self.dataset.class_names,
            feature_qualities=self.dataset.feature_qualities,
            config=system_config,
            candidate_features=candidates,
        )
        vocal.session.force_acquisition = cfg.force_acquisition
        vocal.session.force_feature = cfg.force_feature
        return vocal

    def _build_oracle(self) -> OracleUser:
        cfg = self.config
        if cfg.label_noise > 0:
            return NoisyOracleUser(
                self.dataset.train_corpus,
                noise_rate=cfg.label_noise,
                labeling_time=cfg.user_labeling_time,
                seed=cfg.seed,
            )
        return OracleUser(self.dataset.train_corpus, labeling_time=cfg.user_labeling_time)

    # --------------------------------------------------------------------- run
    def _preprocess_all(self) -> float:
        """Extract every candidate feature from every video; returns the latency."""
        session = self.vocal.session
        total = 0.0
        mean_duration = (
            session.storage.videos.total_duration() / max(1, len(session.storage.videos))
        )
        for name in session.alm.candidate_features():
            report = session.features.extract_all(name)
            spec = session.features.extractor(name).spec
            total += session.cost_model.extraction_batch_time(
                spec, max(report.videos_touched, 1), mean_duration
            )
        return total

    def run(self, num_steps: int | None = None) -> RunResult:
        """Run the labeling loop and return the per-step metrics."""
        cfg = self.config
        steps = num_steps if num_steps is not None else cfg.num_steps
        if steps < 1:
            raise ExperimentError(f"num_steps must be >= 1, got {steps}")
        result = RunResult(dataset=self.dataset.name, config=cfg)
        if cfg.preprocess_all:
            result.preprocessing_latency = self._preprocess_all()

        session = self.vocal.session
        # A resumed run continues from its last durable checkpoint; steps
        # already completed there are not re-recorded.
        for step in range(session.iteration + 1, steps + 1):
            explore_result = self.vocal.explore(cfg.batch_size, cfg.clip_duration)
            labels = self.oracle.label_clips([seg.clip for seg in explore_result.segments])
            session.add_labels(labels)
            summary = self.vocal.finish_iteration()

            feature_in_use = (
                cfg.force_feature if cfg.force_feature is not None else session.alm.current_feature()
            )
            if (
                result.feature_selected_at_step is None
                and session.alm.feature_selection_converged
            ):
                result.selected_feature = session.alm.selected_feature
                result.feature_selected_at_step = step

            if step % cfg.evaluate_every == 0 or step == steps:
                f1 = self.evaluator.evaluate_manager(session.models, feature_in_use)
            else:
                f1 = result.steps[-1].f1 if result.steps else 0.0

            result.steps.append(
                StepMetrics(
                    step=step,
                    num_labels=summary.num_labels_total,
                    f1=f1,
                    smax=summary.smax,
                    visible_latency=summary.visible_latency,
                    cumulative_visible_latency=session.cumulative_visible_latency()
                    + result.preprocessing_latency,
                    acquisition=summary.acquisition,
                    feature=feature_in_use,
                    active_candidates=tuple(session.alm.candidate_features()),
                    skew_p_value=summary.skew_p_value,
                )
            )
        if result.selected_feature is None and session.alm.feature_selection_converged:
            result.selected_feature = session.alm.selected_feature
            result.feature_selected_at_step = steps
        return result


def run_session(dataset: Dataset, config: RunnerConfig | None = None) -> RunResult:
    """One-call helper: build a runner and execute it."""
    return SessionRunner(dataset, config).run()
