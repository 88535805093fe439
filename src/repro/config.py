"""Configuration objects for the VOCALExplore reproduction.

The defaults mirror the hyperparameters reported in the paper:

* ``B = 5`` clips of ``t = 1`` second per Explore call (Section 5, metrics).
* Anderson-Darling skew threshold ``p <= 0.001`` (Section 3.1.2).
* Frequency-test imbalance multiplier ``m = 2`` and false-discovery bound
  ``alpha = 0.05`` (Section 3.1.2 and Appendix A).
* Rising-bandit smoothing span ``w = 5``, slope window ``C = 5``, horizon
  ``T = 50``, with feature selection starting after 10 warm-up iterations and
  3-fold cross-validation (Section 3.2).
* Eager feature-extraction batch size ``|s| = 10`` and a simulated labeling
  time of 10 seconds per clip (Sections 4.2 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from .exceptions import ConfigError

__all__ = [
    "ALMConfig",
    "FeatureSelectionConfig",
    "SchedulerConfig",
    "ModelConfig",
    "ExploreConfig",
    "IndexConfig",
    "TelemetryConfig",
    "ServingConfig",
    "VocalExploreConfig",
]


@dataclass(frozen=True)
class ALMConfig:
    """Acquisition-function selection (Section 3.1)."""

    #: Statistical test used to detect label skew: "anderson-darling" or "frequency".
    skew_test: str = "anderson-darling"
    #: p-value threshold below which the label distribution is declared skewed.
    skew_p_value: float = 0.001
    #: Imbalance-ratio multiplier for the frequency-based test (Appendix A).
    frequency_multiplier: float = 2.0
    #: False-discovery bound for the frequency-based test.
    frequency_alpha: float = 0.05
    #: Active-learning acquisition used once skew is detected:
    #: "cluster-margin" (default per the paper) or "coreset".
    active_acquisition: str = "cluster-margin"
    #: Minimum number of labels before the skew test is evaluated at all.
    min_labels_for_skew_test: int = 10
    #: Number of extra videos whose features the lazy variants extract when
    #: active learning needs a candidate pool (the paper's ``X``).
    candidate_pool_size: int = 50
    #: Number of labels required before predictions are returned to the user.
    min_labels_for_predictions: int = 5

    def __post_init__(self) -> None:
        if self.skew_test not in ("anderson-darling", "frequency"):
            raise ValueError(f"unknown skew test {self.skew_test!r}")
        if self.active_acquisition not in ("cluster-margin", "coreset"):
            raise ValueError(f"unknown active acquisition {self.active_acquisition!r}")
        if not 0 < self.skew_p_value < 1:
            raise ValueError("skew_p_value must be in (0, 1)")
        if self.frequency_multiplier < 1:
            raise ValueError("frequency_multiplier must be >= 1")


@dataclass(frozen=True)
class FeatureSelectionConfig:
    """Rising-bandit feature selection (Section 3.2)."""

    #: EWMA smoothing span ``w``; alpha = 2 / (w + 1).
    smoothing_span: int = 5
    #: Slope window ``C`` used to compute the smoothed growth rate.
    slope_window: int = 5
    #: Horizon ``T`` at which upper bounds are evaluated.
    horizon: int = 50
    #: Number of labeling iterations to wait before starting elimination.
    warmup_iterations: int = 10
    #: Number of cross-validation folds used to score each candidate feature.
    cv_folds: int = 3
    #: Only classes with at least this many labels participate in the k-fold
    #: estimate, so every fold contains every class.
    min_labels_per_class: int = 3

    def __post_init__(self) -> None:
        if self.smoothing_span < 1:
            raise ValueError("smoothing_span must be >= 1")
        if self.slope_window < 1:
            raise ValueError("slope_window must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")


@dataclass(frozen=True)
class SchedulerConfig:
    """Task-scheduler behaviour (Section 4) and execution backend.

    ``strategy`` decides *what* is deferred to the labeling window;
    ``engine`` decides *how* deferred work executes — against the
    deterministic simulated clock (``"simulated"``, the default every
    experiment uses) or on a real worker pool (``"threads"``).  See
    ``docs/SCHEDULER.md`` ("Choosing an engine") for guidance.
    """

    #: Scheduling strategy: "serial", "ve-partial", or "ve-full".
    strategy: str = "ve-full"
    #: Simulated seconds the user spends labeling one clip (T_user).
    user_labeling_time: float = 10.0
    #: Number of videos processed by one eager feature-extraction task (|s|).
    eager_batch_size: int = 10
    #: Setup overhead, in simulated seconds, of building one extraction pipeline.
    pipeline_setup_time: float = 1.0
    #: Hard cap on eagerly processed videos (the "guardrail" in Section 4.2);
    #: ``None`` means no cap.
    eager_video_limit: int | None = None
    #: Execution backend: "simulated" (deterministic discrete-event clock) or
    #: "threads" (real ``concurrent.futures`` worker pool).
    engine: str = "simulated"
    #: Worker-pool size for the "threads" engine (ignored by "simulated").
    num_workers: int = 4
    #: Wall seconds one cost-model second takes on the "threads" engine; 1.0
    #: means real time, small values (e.g. 1e-3) compress seeded workloads
    #: into milliseconds for benchmarks and tests.
    time_scale: float = 1.0
    #: Directory for durable checkpoints (``repro.storage.durability``).
    #: When set, every store write is journaled (write-ahead, fsynced at
    #: iteration boundaries) and ``ExplorationSession.checkpoint()/resume()``
    #: become available; ``None`` disables durability entirely.
    checkpoint_dir: str | None = None
    #: Take an automatic snapshot every N completed iterations (0 = only
    #: explicit ``checkpoint()`` calls).  Requires ``checkpoint_dir``.
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("serial", "ve-partial", "ve-full"):
            raise ValueError(f"unknown scheduler strategy {self.strategy!r}")
        if self.user_labeling_time < 0:
            raise ValueError("user_labeling_time must be >= 0")
        if self.eager_batch_size < 1:
            raise ValueError("eager_batch_size must be >= 1")
        # Local import: config is imported by the scheduler package, so the
        # canonical engine-name list can only be pulled in lazily.
        from .scheduler.engine import ENGINE_NAMES

        if self.engine not in ENGINE_NAMES:
            raise ValueError(f"unknown execution engine {self.engine!r}; known: {list(ENGINE_NAMES)}")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir to be set")
        if self.checkpoint_every > 0 and self.engine != "simulated":
            # Fail at construction, not at the first auto-checkpoint boundary
            # mid-run: snapshots capture the deterministic simulated state.
            raise ValueError(
                "checkpoint_every requires the simulated engine "
                f"(got engine={self.engine!r}); journaling alone "
                "(checkpoint_dir without checkpoint_every) works on any engine"
            )


@dataclass(frozen=True)
class ModelConfig:
    """Linear-probe training configuration."""

    #: L2 regularisation strength applied during training.
    l2_regularization: float = 1e-2
    #: Maximum optimiser iterations.
    max_iterations: int = 200
    #: Convergence tolerance passed to the optimiser.
    tolerance: float = 1e-6
    #: Convergence tolerance for warm-started fits.  A warm seed is already
    #: the optimum of an adjacent problem (the same labels minus one explore
    #: batch), so the optimiser's remaining progress per iteration sits just
    #: above a tight ``tolerance`` for many iterations while changing the
    #: predictor imperceptibly; a slightly looser stop captures nearly the
    #: whole warm-start saving.  Only used when a warm seed exists.
    warm_tolerance: float = 1e-5
    #: Incremental training engine (on by default): retrains warm-start
    #: L-BFGS from the latest registered model, design matrices are cached
    #: per feature and extended with only the labels appended since the last
    #: build, and cross-validation reuses fold solutions across bandit rounds
    #: (serving the whole round from cache when nothing changed).  ``False``
    #: restores the original cold-start paths everywhere — every train starts
    #: from zero on a freshly gathered matrix — which is what the training
    #: benchmark compares against.
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.l2_regularization < 0:
            raise ValueError("l2_regularization must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.warm_tolerance <= 0:
            raise ValueError("warm_tolerance must be > 0")


@dataclass(frozen=True)
class ExploreConfig:
    """Per-session exploration parameters."""

    #: Number of clips returned per Explore call (labeling budget increment B).
    batch_size: int = 5
    #: Duration, in seconds, of each returned clip (t).
    clip_duration: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.clip_duration <= 0:
            raise ValueError("clip_duration must be > 0")


@dataclass(frozen=True)
class IndexConfig:
    """Vector-index subsystem (``repro.index``) used for nearest-neighbour math.

    The exact backend reproduces brute-force results bit-for-bit; the IVF
    backend trades recall for sub-linear search over large candidate pools.
    """

    #: Index backend: "exact" (default, the correctness oracle) or "ivf-flat".
    backend: str = "exact"
    #: IVF coarse-cell count; None derives ``round(sqrt(n))`` at build time.
    nlist: int | None = None
    #: IVF cells probed per query (recall/speed knob).
    nprobe: int = 8
    #: IVF re-trains once incremental adds exceed this fraction of the
    #: trained size.
    retrain_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "ivf-flat"):
            raise ValueError(f"unknown index backend {self.backend!r}")
        if self.nlist is not None and self.nlist < 1:
            raise ValueError("nlist must be >= 1")
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if self.retrain_factor <= 0:
            raise ValueError("retrain_factor must be > 0")


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability subsystem (``repro.telemetry``).

    Telemetry is off by default and costs nearly nothing while off (the
    telemetry benchmark gates the disabled overhead at <= 3%).  Setting any
    field activates a telemetry run for the session: spans and metrics are
    collected in-process, written to ``trace_dir`` when one is given, and
    per-iteration visible latency is checked against
    ``visible_latency_slo_s`` when a budget is declared.
    """

    #: Collect spans and metrics even without a trace directory (the run
    #: report and SLO accounting are still available in-process).
    enabled: bool = False
    #: Directory receiving ``trace.jsonl``, ``chrome_trace.json``, and
    #: ``metrics.json``; None keeps the run in-memory only.
    trace_dir: str | None = None
    #: Per-iteration user-visible latency budget in cost-model seconds; an
    #: iteration whose T_s exceeds it counts as an SLO violation.  None
    #: records latency without verdicts.
    visible_latency_slo_s: float | None = None

    def __post_init__(self) -> None:
        if self.visible_latency_slo_s is not None and self.visible_latency_slo_s <= 0:
            raise ValueError("visible_latency_slo_s must be > 0")

    @property
    def active(self) -> bool:
        """True when any field asks for a telemetry run."""
        return (
            self.enabled
            or self.trace_dir is not None
            or self.visible_latency_slo_s is not None
        )


@dataclass(frozen=True)
class ServingConfig:
    """Multi-session serving layer (``repro.serving``).

    Controls the asyncio front door and the session manager behind it:
    where to listen, how many sessions stay resident in memory before LRU
    eviction pages the coldest to disk, how deep the request queue may grow
    before load shedding, and the per-request-class wall-clock SLO budgets
    surfaced by ``stats`` and the serving benchmark.

    Standalone by design: one server hosts many ``VocalExploreConfig``-built
    sessions, so this section is not part of :class:`VocalExploreConfig`.
    """

    #: Listen address; the default binds loopback only.
    host: str = "127.0.0.1"
    #: TCP port (0 = let the OS pick; the bound port is logged and returned).
    port: int = 0
    #: Sessions kept in memory at once; the LRU idle session beyond this is
    #: checkpointed to disk and released.
    max_resident_sessions: int = 8
    #: Total named sessions admitted, resident or paged out (0 = unbounded).
    max_sessions: int = 0
    #: In-flight + queued requests beyond which new requests are shed with an
    #: ``AdmissionError`` response instead of queuing without bound.
    max_queue_depth: int = 64
    #: Worker threads executing session requests (distinct sessions run
    #: concurrently; each session's requests stay strictly ordered).
    worker_threads: int = 4
    #: Per-request-class wall-clock SLO budgets in seconds (None = record
    #: latency without a verdict for that class).
    explore_slo_s: float | None = None
    label_slo_s: float | None = None
    search_slo_s: float | None = None
    predict_slo_s: float | None = None
    #: Per-request-class wall-clock deadlines in seconds (None = no deadline
    #: for that class).  A request past its deadline is cancelled
    #: cooperatively at the next scheduler boundary and answered with a
    #: ``DeadlineExceededError``; the session stays healthy and the request
    #: is safe to retry.
    explore_deadline_s: float | None = None
    label_deadline_s: float | None = None
    search_deadline_s: float | None = None
    predict_deadline_s: float | None = None
    #: Seconds a graceful shutdown waits for in-flight requests to finish
    #: (new requests are shed while draining) before checkpointing every
    #: resident session and closing the manager.
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_resident_sessions < 1:
            raise ValueError("max_resident_sessions must be >= 1")
        if self.max_sessions < 0:
            raise ValueError("max_sessions must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        for name in (
            "explore_slo_s", "label_slo_s", "search_slo_s", "predict_slo_s",
            "explore_deadline_s", "label_deadline_s", "search_deadline_s",
            "predict_deadline_s",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0 when set")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be > 0")

    def budgets(self) -> dict[str, float]:
        """Per-request-class budget mapping (unbudgeted classes omitted)."""
        return self._per_class("slo_s")

    def deadlines(self) -> dict[str, float]:
        """Per-request-class deadline mapping (undeadlined classes omitted)."""
        return self._per_class("deadline_s")

    def _per_class(self, suffix: str) -> dict[str, float]:
        """The ``<class>_<suffix>`` fields that are set, keyed by request class."""
        values = {
            name: getattr(self, f"{name}_{suffix}")
            for name in ("explore", "label", "search", "predict")
        }
        return {name: value for name, value in values.items() if value is not None}


@dataclass(frozen=True)
class VocalExploreConfig:
    """Top-level configuration combining every subsystem."""

    alm: ALMConfig = field(default_factory=ALMConfig)
    feature_selection: FeatureSelectionConfig = field(default_factory=FeatureSelectionConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    explore: ExploreConfig = field(default_factory=ExploreConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Random seed driving sampling, synthetic data, and model initialisation.
    seed: int = 0

    def with_updates(self, **sections: Mapping[str, Any] | Any) -> "VocalExploreConfig":
        """Return a copy with whole sections or the seed replaced.

        A section is given as its dataclass, or as a mapping of that
        dataclass's fields, which builds the section from them (the fields
        it leaves out take their defaults).

        Example::

            config.with_updates(scheduler=SchedulerConfig(strategy="serial"), seed=7)
            config.with_updates(scheduler={"strategy": "serial"})

        Raises:
            ConfigError: for an unknown section, or a mapping naming a field
                its section does not have.
        """
        valid = {
            "alm", "feature_selection", "scheduler", "model", "explore", "index",
            "telemetry", "seed",
        }
        unknown = set(sections) - valid
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for name, value in sections.items():
            if name != "seed" and isinstance(value, Mapping):
                section = type(getattr(self, name))
                unknown = set(value) - {item.name for item in fields(section)}
                if unknown:
                    raise ConfigError(f"unknown {name} config fields: {sorted(unknown)}")
                sections[name] = section(**value)
        return replace(self, **sections)
