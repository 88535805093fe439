"""Model Manager (MM).

The MM "trains models using the user-specified labels and performs inference
on these models to return predictions" (paper Section 2.3).  It maintains one
model per candidate feature extractor and always serves predictions from the
most recently *completed* model, so training can be scheduled asynchronously
by the Task Scheduler without blocking Explore calls.

Incremental training engine
---------------------------

Labels are append-only between Explore iterations, so the train/evaluate hot
path (T_t and T_e in the paper's cost model) is incremental end to end when
``ModelConfig.warm_start`` is on (the default):

* **Design-matrix cache** — per feature, the gathered ``(matrix, names)``
  design is cached together with the label revision and feature-store epoch
  it was built at.  A retrain gathers only the feature rows of labels
  appended since the cached revision and appends them; a feature-store epoch
  change (new vectors could re-resolve old clips) rebuilds from scratch.
  Per-column sums and sums of squares are maintained alongside so the
  standardization statistics update in O(new rows) instead of a full pass.
* **Warm-start training** — :meth:`train` seeds L-BFGS from the latest
  registered model's weights (aligned by class name, zero-padding classes the
  old model never saw).  The objective is convex, so this changes convergence
  speed, not the predictor.
* **Fast cross-validation** — :meth:`cross_validate` standardizes the full
  eligible matrix once, slices folds by index arrays, warm-starts each fold
  from the previous bandit round's solution for the same fold, and returns
  the cached :class:`CrossValidationResult` untouched when neither labels nor
  features changed since the last round.

With ``warm_start=False`` every path behaves exactly like the original
cold-start implementation (fresh gathers, zero initialisation, stateful-RNG
fold assignment), which is also what the training benchmark compares against.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import telemetry
from ..config import ModelConfig
from ..exceptions import InsufficientLabelsError, ModelError
from ..features.feature_manager import FeatureManager
from ..storage.label_store import LabelStore
from ..storage.model_registry import ModelRegistry
from ..types import ClipSpec, Prediction, TrainedModelInfo
from .linear import SoftmaxRegression, standardization_stats
from .metrics import macro_f1
from .validation import (
    CrossValidationResult,
    IncrementalFoldAssigner,
    cross_validate_macro_f1,
    cross_validate_macro_f1_warm,
)

__all__ = ["TrainingStats", "ModelManager"]

logger = logging.getLogger(__name__)


@dataclass
class TrainingStats:
    """Counters describing how much work the incremental engine avoided."""

    #: Full trains seeded from a previous model vs. started from zero.
    warm_trains: int = 0
    cold_trains: int = 0
    #: Design-matrix cache outcomes: served unchanged, extended by appended
    #: rows, or rebuilt from scratch (first build or epoch invalidation).
    design_hits: int = 0
    design_extensions: int = 0
    design_rebuilds: int = 0
    #: Cross-validation rounds served straight from cache (nothing changed).
    cv_cache_hits: int = 0
    #: Cross-validation rounds recomputed; fold models trained during them,
    #: split by whether the optimiser was seeded from the previous round.
    cv_rounds: int = 0
    cv_warm_folds: int = 0
    cv_cold_folds: int = 0

    @property
    def fold_reuse_rate(self) -> float:
        """Fraction of trained CV fold models seeded from a previous round."""
        total = self.cv_warm_folds + self.cv_cold_folds
        return self.cv_warm_folds / total if total else 0.0


@dataclass
class _DesignCache:
    """Cached design matrix for one feature, plus incremental statistics.

    ``clips`` and ``rows`` record, per cached label, which store row its
    feature came from.  Store rows are append-only and never rewritten, so as
    long as each cached clip still resolves to the same row, the cached
    matrix rows are current even though the store's epoch moved — which it
    does on every foreground extraction of freshly selected clips.
    """

    label_revision: int
    feature_epoch: int
    matrix: np.ndarray
    names: list[str]
    clips: list[ClipSpec]
    rows: np.ndarray
    column_sum: np.ndarray = field(default_factory=lambda: np.empty(0))
    column_sumsq: np.ndarray = field(default_factory=lambda: np.empty(0))

    def standardization(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean, scale) derived from the cached column sums.

        Matches ``features.mean(0)`` / ``features.std(0)`` up to floating
        point: the variance comes from ``E[x^2] - E[x]^2`` clamped at zero.
        """
        n = max(1, self.matrix.shape[0])
        mean = self.column_sum / n
        variance = np.maximum(self.column_sumsq / n - mean**2, 0.0)
        scale = np.sqrt(variance)
        scale[scale < 1e-12] = 1.0
        return mean, scale


class ModelManager:
    """Trains and serves one linear probe per feature extractor."""

    def __init__(
        self,
        feature_manager: FeatureManager,
        label_store: LabelStore,
        registry: ModelRegistry,
        vocabulary: Sequence[str],
        config: ModelConfig | None = None,
        seed: int = 0,
    ) -> None:
        """Create the manager.

        Args:
            feature_manager: Source of feature matrices for labeled clips.
            label_store: Source of the labels collected so far.
            registry: Destination for trained model checkpoints.
            vocabulary: Full label vocabulary used for every trained model.
            config: Linear-probe hyperparameters.
            seed: Seed for cross-validation splits.
        """
        if not vocabulary:
            raise ModelError("the model manager needs a non-empty vocabulary")
        self.feature_manager = feature_manager
        self.labels = label_store
        self.registry = registry
        self.vocabulary = list(dict.fromkeys(vocabulary))
        self.config = config if config is not None else ModelConfig()
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # The shared generator, the design-matrix cache, and the CV caches
        # below are not thread-safe on their own, and a session's managers
        # may be called from more than one thread.  One wide lock serialises
        # whole cross-validation rounds, which keeps the cache transitions
        # trivially atomic.
        self._rng_lock = threading.Lock()
        #: Incremental-training state, all guarded by ``_rng_lock``:
        self._design_cache: dict[str, _DesignCache] = {}
        self._cv_cache: dict[str, tuple[tuple[int, int, int, int], CrossValidationResult]] = {}
        self._cv_fold_models: dict[tuple[str, int], dict[int, SoftmaxRegression]] = {}
        # One fold assigner per fold count, shared across features: labels
        # are global, so every feature's CV slices the same stable folds.
        self._fold_assigners: dict[int, IncrementalFoldAssigner] = {}
        self.stats = TrainingStats()

    # ----------------------------------------------------------- training data
    def training_examples(self, label_limit: int | None = None) -> tuple[list[ClipSpec], list[str]]:
        """Return (clips, label names) for the stored labels.

        Args:
            label_limit: When set, only the first ``label_limit`` labels are
                returned.  The Task Scheduler uses this to train just-in-time
                models on the labels that had arrived when training started.
        """
        stored = self.labels.all()
        if label_limit is not None:
            stored = stored[: max(0, label_limit)]
        clips = [label.clip for label in stored]
        names = [label.label for label in stored]
        return clips, names

    def training_design(
        self, feature_name: str, label_limit: int | None = None
    ) -> tuple[np.ndarray, list[str]]:
        """Design matrix and class names for the stored labels.

        With the incremental engine on, the matrix comes from the per-feature
        design cache (rows are in label-insertion order, so a ``label_limit``
        prefix is a plain slice); otherwise it is gathered from scratch.
        Callers must not mutate the returned matrix.
        """
        if not self.config.warm_start:
            clips, names = self.training_examples(label_limit)
            return self._design_matrix(feature_name, clips), names
        with self._rng_lock:
            entry = self._cached_design(feature_name)
            if label_limit is None:
                return entry.matrix, list(entry.names)
            limit = max(0, label_limit)
            return entry.matrix[:limit], entry.names[:limit]

    def _design_matrix(self, feature_name: str, clips: list[ClipSpec]) -> np.ndarray:
        """Single batched design-matrix path shared by training and evaluation.

        Resolves the whole clip list through the feature store's batched
        ``matrix`` gather (with nearest-window fallback) instead of per-clip
        lookups.
        """
        return self.feature_manager.matrix(feature_name, clips)

    def _cached_design(self, feature_name: str) -> _DesignCache:
        """Return the up-to-date design cache entry for ``feature_name``.

        Caller must hold ``_rng_lock``.  Three outcomes, cheapest first:

        1. **Hit** — label revision and store epoch both match; the entry is
           returned untouched.
        2. **Extension** — only the rows for labels appended since the cached
           revision are extracted/gathered and appended, and the
           standardization sums are updated from just those rows.  If the
           store's epoch moved (new vectors were written), the cached clips
           are first re-resolved to rows; row indices are append-stable, so
           an unchanged resolution proves the cached matrix is still current.
        3. **Rebuild** — first build for this feature, or a write changed
           some cached clip's nearest-window resolution.

        The feature manager's lock is held across extract + resolve + gather
        so extraction on another thread cannot slip writes between the
        consistency check and the gather.  The entry's ``label_revision`` is
        always derived from the labels actually read (revisions tick once per
        label, so it equals the cached row count), never from a revision
        sampled before the read — another thread may append labels while the
        cache is extended, and a stale sampled revision would make the next
        extension re-append the same rows.
        """
        entry = self._design_cache.get(feature_name)
        store = self.feature_manager.store
        if (
            entry is not None
            and entry.label_revision == self.labels.revision
            and entry.feature_epoch == store.epoch(feature_name)
        ):
            self.stats.design_hits += 1
            telemetry.counter("models.design_hits").add(1)
            return entry

        if entry is not None:
            fresh = self.labels.since(entry.label_revision)
            fresh_clips = [label.clip for label in fresh]
            with self.feature_manager.reserve():
                if fresh_clips:
                    self.feature_manager.ensure_clip_features(feature_name, fresh_clips)
                epoch_now = store.epoch(feature_name)
                stable = epoch_now == entry.feature_epoch or (
                    store.count(feature_name) > 0
                    and np.array_equal(
                        store.resolve_rows(feature_name, entry.clips), entry.rows
                    )
                )
                if stable:
                    if fresh_clips:
                        new_rows = store.resolve_rows(feature_name, fresh_clips)
                        gathered = store.columns(feature_name)[3][new_rows]
                    else:
                        new_rows = np.empty(0, dtype=np.int64)
                        gathered = np.empty((0, entry.matrix.shape[1]))
                    if gathered.shape[1] == entry.matrix.shape[1]:
                        entry.matrix = np.concatenate([entry.matrix, gathered])
                        entry.names.extend(label.label for label in fresh)
                        entry.clips.extend(fresh_clips)
                        entry.rows = np.concatenate([entry.rows, new_rows])
                        entry.column_sum = entry.column_sum + gathered.sum(axis=0)
                        entry.column_sumsq = entry.column_sumsq + (gathered**2).sum(axis=0)
                        entry.label_revision += len(fresh)
                        entry.feature_epoch = epoch_now
                        self.stats.design_extensions += 1
                        telemetry.counter("models.design_extensions").add(1)
                        return entry
            # A write changed some cached clip's resolution (or the shard's
            # dimensionality only just became known): rebuild from scratch.

        clips, names = self.training_examples()
        with self.feature_manager.reserve():
            if clips:
                self.feature_manager.ensure_clip_features(feature_name, clips)
                rows = store.resolve_rows(feature_name, clips)
                matrix = store.columns(feature_name)[3][rows]
            else:
                # Preserve the uncached path's behaviour for empty label sets
                # (an unknown extractor still raises MissingFeatureError).
                matrix = self.feature_manager.matrix(feature_name, clips)
                rows = np.empty(0, dtype=np.int64)
            epoch = store.epoch(feature_name)
        entry = _DesignCache(
            label_revision=len(names),
            feature_epoch=epoch,
            matrix=matrix,
            names=names,
            clips=clips,
            rows=rows,
            column_sum=matrix.sum(axis=0),
            column_sumsq=(matrix**2).sum(axis=0),
        )
        self._design_cache[feature_name] = entry
        self.stats.design_rebuilds += 1
        telemetry.counter("models.design_rebuilds").add(1)
        return entry

    def can_train(self) -> bool:
        """True when the collected labels span at least two classes."""
        counts = self.labels.class_counts()
        return len(counts) >= 2 and sum(counts.values()) >= 2

    # ------------------------------------------------------------------ training
    def train(
        self,
        feature_name: str,
        at_time: float = 0.0,
        label_limit: int | None = None,
    ) -> TrainedModelInfo:
        """Train a new model for ``feature_name``.

        With ``config.warm_start`` on, the design matrix comes from the
        incremental cache and L-BFGS is seeded from the latest registered
        model for this feature (when one exists with a matching feature
        dimension).

        Args:
            feature_name: Feature extractor whose stored vectors to train on.
            at_time: Simulated timestamp recorded on the registered model.
            label_limit: Train only on the first ``label_limit`` labels
                (just-in-time training); None uses every collected label.

        Raises:
            InsufficientLabelsError: when fewer than two classes are labeled.
        """
        # Cheap class-diversity check before any feature gathering so an
        # untrainable label set fails the same way it always did, without
        # touching the feature store.
        if label_limit is None:
            trainable = len(self.labels.class_counts()) >= 2
        else:
            __, prefix_names = self.training_examples(label_limit)
            trainable = len(set(prefix_names)) >= 2
        if not trainable:
            raise InsufficientLabelsError(
                "training requires labels from at least two classes"
            )
        with telemetry.span(
            "train", "models", metric="models.train_seconds", feature=feature_name
        ) as train_span:
            features, names = self.training_design(feature_name, label_limit)
            initial = None
            standardization = None
            if self.config.warm_start:
                if label_limit is None:
                    with self._rng_lock:
                        entry = self._design_cache.get(feature_name)
                        if entry is not None and entry.matrix.shape[0] == features.shape[0]:
                            standardization = entry.standardization()
                if standardization is None and features.shape[0]:
                    # Just-in-time (prefix) trains bypass the cached sums; the
                    # stats are still needed up front so the warm seed can be
                    # re-expressed in the basis the fit will standardize with.
                    standardization = standardization_stats(features)
                latest = self.registry.latest(feature_name)
                if latest is not None:
                    initial = latest[0].initial_parameters_for(
                        self.vocabulary, features.shape[1], standardization=standardization
                    )
            model = SoftmaxRegression(
                classes=self.vocabulary,
                l2_regularization=self.config.l2_regularization,
                max_iterations=self.config.max_iterations,
                tolerance=self.config.warm_tolerance
                if initial is not None
                else self.config.tolerance,
            )
            with self._rng_lock:
                if initial is not None:
                    self.stats.warm_trains += 1
                else:
                    self.stats.cold_trains += 1
            warm = initial is not None
            train_span.set_attribute("warm", warm)
            train_span.set_attribute("num_labels", len(names))
            telemetry.counter("models.warm_fits" if warm else "models.cold_fits").add(1)
            model.fit(
                features, names, initial_parameters=initial, standardization=standardization
            )
            return self.registry.register(
                feature_name=feature_name,
                model=model,
                classes=self.vocabulary,
                num_labels=len(names),
                created_at=at_time,
            )

    def train_if_possible(
        self,
        feature_name: str,
        at_time: float = 0.0,
        label_limit: int | None = None,
    ) -> TrainedModelInfo | None:
        """Train when enough labels exist; otherwise return None."""
        __, names = self.training_examples(label_limit)
        if len(set(names)) < 2 or len(names) < 2:
            return None
        return self.train(feature_name, at_time=at_time, label_limit=label_limit)

    # ----------------------------------------------------------------- serving
    def has_model(self, feature_name: str) -> bool:
        """True when at least one trained model exists for ``feature_name``."""
        return self.registry.latest(feature_name) is not None

    def latest_model(self, feature_name: str) -> tuple[SoftmaxRegression, TrainedModelInfo]:
        """The most recent trained model for ``feature_name``.

        Raises:
            ModelError: when no model has been trained yet.
        """
        entry = self.registry.latest(feature_name)
        if entry is None:
            raise ModelError(f"no trained model for feature {feature_name!r}")
        return entry

    def predict_matrix(self, feature_name: str, features: np.ndarray) -> np.ndarray:
        """Class-probability matrix for pre-extracted feature rows."""
        model, __ = self.latest_model(feature_name)
        return model.predict_proba(features)

    def predict_clips(self, feature_name: str, clips: Sequence[ClipSpec]) -> list[Prediction]:
        """Predictions for clips, extracting their features if necessary."""
        if not clips:
            return []
        model, info = self.latest_model(feature_name)
        features = self.feature_manager.matrix(feature_name, clips)
        # One batched inference call; .tolist() converts to Python floats in
        # bulk instead of one np.float64 cast per (clip, class) pair.
        rows = model.predict_proba(features).tolist()
        classes = list(model.classes)
        return [
            Prediction(
                vid=clip.vid,
                start=clip.start,
                end=clip.end,
                probabilities=dict(zip(classes, row)),
                feature_name=feature_name,
                model_version=info.version,
            )
            for clip, row in zip(clips, rows)
        ]

    # -------------------------------------------------------------- evaluation
    def evaluate(
        self,
        feature_name: str,
        eval_clips: Sequence[ClipSpec],
        eval_labels: Sequence[str],
    ) -> float:
        """Macro F1 of the latest model on a held-out evaluation set."""
        if len(eval_clips) != len(eval_labels):
            raise ModelError("eval_clips and eval_labels must have the same length")
        if not eval_clips:
            return 0.0
        model, __ = self.latest_model(feature_name)
        features = self.feature_manager.matrix(feature_name, list(eval_clips))
        predictions = model.predict(features)
        return macro_f1(list(eval_labels), predictions, self.vocabulary)

    def cross_validate(
        self,
        feature_name: str,
        num_folds: int = 3,
        min_labels_per_class: int = 3,
    ) -> CrossValidationResult:
        """k-fold macro-F1 estimate on the labels collected so far.

        This is the feature-evaluation task (T_e) used by the rising-bandit
        feature selector before a labeled validation set exists.  With the
        incremental engine on, the round is served from cache when nothing
        changed since the previous round (same label revision, feature epoch,
        and fold parameters — fold assignment is a pure function of the seed
        and the revision, so equal keys imply equal folds); otherwise folds
        are recomputed with shared standardization and warm-started from the
        previous round's per-fold solutions.
        """
        if not len(self.labels):
            raise InsufficientLabelsError("no labels collected yet")
        with telemetry.span(
            "cross_validate",
            "models",
            metric="models.cross_validate_seconds",
            feature=feature_name,
            num_folds=num_folds,
        ):
            return self._cross_validate_impl(feature_name, num_folds, min_labels_per_class)

    def _cross_validate_impl(
        self,
        feature_name: str,
        num_folds: int,
        min_labels_per_class: int,
    ) -> CrossValidationResult:
        """Span-free body of :meth:`cross_validate`."""
        if not self.config.warm_start:
            features, names = self.training_design(feature_name)
            with self._rng_lock:
                return cross_validate_macro_f1(
                    features,
                    names,
                    num_folds=num_folds,
                    min_labels_per_class=min_labels_per_class,
                    l2_regularization=self.config.l2_regularization,
                    max_iterations=self.config.max_iterations,
                    rng=self._rng,
                )
        with self._rng_lock:
            entry = self._cached_design(feature_name)
            key = (entry.label_revision, entry.feature_epoch, num_folds, min_labels_per_class)
            cached = self._cv_cache.get(feature_name)
            if cached is not None and cached[0] == key:
                self.stats.cv_cache_hits += 1
                telemetry.counter("models.cv_cache_hits").add(1)
                return cached[1]
            # Append-stable fold assignment: old labels never change folds,
            # so (a) rounds at the same revision share folds exactly, which
            # is what lets the cache above return previous results untouched,
            # and (b) between revisions each fold's training set changes only
            # by the appended labels, making the previous round's fold
            # solutions near-optimal optimiser seeds.
            assigner = self._fold_assigners.get(num_folds)
            if assigner is None:
                assigner = self._fold_assigners[num_folds] = IncrementalFoldAssigner(
                    num_folds, seed=self._seed
                )
            assignment = assigner.extend(entry.names)
            warm = cross_validate_macro_f1_warm(
                entry.matrix,
                entry.names,
                num_folds=num_folds,
                min_labels_per_class=min_labels_per_class,
                l2_regularization=self.config.l2_regularization,
                max_iterations=self.config.max_iterations,
                previous_fold_models=self._cv_fold_models.get((feature_name, num_folds)),
                fold_assignment=assignment,
                warm_tolerance=self.config.warm_tolerance,
            )
            self._cv_fold_models[(feature_name, num_folds)] = warm.fold_models
            self._cv_cache[feature_name] = (key, warm.result)
            self.stats.cv_rounds += 1
            self.stats.cv_warm_folds += warm.warm_started_folds
            self.stats.cv_cold_folds += len(warm.fold_models) - warm.warm_started_folds
            telemetry.counter("models.cv_warm_folds").add(warm.warm_started_folds)
            telemetry.counter("models.cv_cold_folds").add(
                len(warm.fold_models) - warm.warm_started_folds
            )
            return warm.result
