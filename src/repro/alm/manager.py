"""Active Learning Manager (ALM).

The ALM is the paper's first core contribution (Section 3).  It owns two
decisions at every Explore call:

1. **Acquisition-function selection** (VE-sample): start with random sampling;
   once the collected labels look skewed (Anderson-Darling or frequency test),
   switch to an active-learning acquisition (Cluster-Margin by default,
   Coreset optionally).  Label-targeted Explore calls use rare-category
   uncertainty sampling.
2. **Feature-extractor selection** (VE-select): treat each candidate extractor
   as a rising-bandit arm scored by cross-validated macro F1 and eliminate
   dominated arms until one of the best remains.

The ALM performs *decisions* and bookkeeping; the exploration session (driven
by the Task Scheduler) decides *when* the associated work runs and charges its
simulated cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .. import telemetry
from ..config import ALMConfig, FeatureSelectionConfig, IndexConfig
from ..exceptions import AcquisitionError, InsufficientLabelsError
from ..features.feature_manager import ExtractionReport, FeatureManager
from ..models.model_manager import ModelManager
from ..storage.label_store import LabelStore
from ..storage.video_store import VideoStore
from ..types import ClipSpec
from .acquisition import (
    AcquisitionContext,
    ClusterMarginAcquisition,
    CoresetAcquisition,
    RandomAcquisition,
    RareCategoryUncertaintyAcquisition,
)
from .bandit import RisingBanditSelector
from .skew import SkewDecision, SkewDetector

__all__ = ["SelectionResult", "ActiveLearningManager"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionResult:
    """Clips chosen for labeling plus how they were chosen."""

    clips: list[ClipSpec]
    acquisition: str
    feature_name: str | None
    skew: SkewDecision | None = None


class ActiveLearningManager:
    """Selects clips to label and the feature extractor to rely on."""

    def __init__(
        self,
        video_store: VideoStore,
        label_store: LabelStore,
        feature_manager: FeatureManager,
        model_manager: ModelManager,
        candidate_features: Sequence[str],
        alm_config: ALMConfig | None = None,
        selection_config: FeatureSelectionConfig | None = None,
        seed: int = 0,
        index: IndexConfig = IndexConfig(),
    ) -> None:
        self.videos = video_store
        self.labels = label_store
        self.features = feature_manager
        self.models = model_manager
        self.config = alm_config if alm_config is not None else ALMConfig()
        self.selection_config = (
            selection_config if selection_config is not None else FeatureSelectionConfig()
        )
        self.rng = np.random.default_rng(seed)

        self.skew_detector = SkewDetector(self.config)
        self.bandit = RisingBanditSelector(candidate_features, self.selection_config)
        self._random = RandomAcquisition(feature_manager.sampler)
        self._coreset = CoresetAcquisition(index=index, seed=seed)
        self._cluster_margin = ClusterMarginAcquisition(index=index)
        self._rare_category = RareCategoryUncertaintyAcquisition()
        self._iteration = 0
        self._last_skew: SkewDecision | None = None
        #: Per-feature candidate-pool context cache keyed by (feature-store
        #: epoch, label revision, latest model version): back-to-back Explore
        #: calls with no new writes skip rebuilding the ClipSpec list and the
        #: per-labeled-clip overlap scan entirely.
        self._context_cache: dict[str, tuple[tuple[int, int, int], AcquisitionContext]] = {}

    # ------------------------------------------------------------- feature side
    def candidate_features(self) -> list[str]:
        """Features still under consideration by the bandit."""
        return self.bandit.active_arms()

    def current_feature(self) -> str:
        """Feature to use for predictions and active learning right now."""
        return self.bandit.current_best()

    @property
    def feature_selection_converged(self) -> bool:
        """True once a single feature remains."""
        return self.bandit.converged

    @property
    def selected_feature(self) -> str | None:
        """The finally selected feature, or None before convergence."""
        return self.bandit.selected

    def evaluate_features(self) -> dict[str, float]:
        """Cross-validated macro F1 for every active candidate feature.

        Features whose estimate cannot be computed yet (too few labels per
        class) are scored 0.0 so the bandit keeps them around.  Only
        :class:`InsufficientLabelsError` means "not enough labels"; any other
        exception is a real defect (e.g. a shape bug) and propagates instead
        of being silently masked as a zero score.
        """
        scores: dict[str, float] = {}
        with telemetry.span(
            "evaluate_features", "alm", candidates=len(self.bandit.active_arms())
        ):
            for name in self.bandit.active_arms():
                try:
                    result = self.models.cross_validate(
                        name,
                        num_folds=self.selection_config.cv_folds,
                        min_labels_per_class=self.selection_config.min_labels_per_class,
                    )
                    scores[name] = result.mean_f1
                except InsufficientLabelsError:
                    scores[name] = 0.0
        return scores

    def update_feature_scores(self, scores: dict[str, float]) -> list[str]:
        """Feed one round of scores to the rising bandit; returns eliminated arms."""
        return self.bandit.update(scores)

    # --------------------------------------------------------- acquisition side
    def decide_acquisition(self) -> SkewDecision:
        """Evaluate the skew test on the labels collected so far."""
        decision = self.skew_detector.evaluate(
            self.labels.class_counts(),
            num_known_classes=len(self.models.vocabulary),
        )
        self._last_skew = decision
        return decision

    @property
    def use_active_learning(self) -> bool:
        """Whether the most recent skew decision calls for active learning."""
        return self._last_skew is not None and self._last_skew.is_skewed

    def ensure_candidate_pool(self, feature_name: str, extra_videos: int) -> ExtractionReport:
        """Extract features from ``extra_videos`` additional unlabeled videos.

        This is the paper's ``X`` knob for the lazy (non-eager) variants: when
        VE-sample switches to active learning, the candidate pool is grown by
        X videos per Explore call instead of preprocessing everything.
        """
        labeled = set(self.labels.labeled_vids())
        with_features = set(self.features.vids_with_features(feature_name))
        fresh = [vid for vid in self.videos.vids() if vid not in labeled and vid not in with_features]
        chosen = fresh[:extra_videos]
        return self.features.ensure_video_features(feature_name, chosen)

    def _candidate_context(self, feature_name: str, target_label: str | None) -> AcquisitionContext:
        """Build (or reuse) the acquisition context for one feature's pool.

        The context is a pure function of the feature store's contents, the
        label set, and the latest trained model, so it is cached per feature
        and keyed on (store epoch, label revision, model version); a hit only
        swaps in the requested ``target_label``.
        """
        cache_key = (
            self.features.store.epoch(feature_name),
            self.labels.revision,
            self.models.registry.latest_version(feature_name),
        )
        cached = self._context_cache.get(feature_name)
        if cached is not None and cached[0] == cache_key:
            context = cached[1]
            if context.target_label != target_label:
                context = replace(context, target_label=target_label)
            return context

        vids, starts, ends, vectors = self.features.candidate_pool_columns(feature_name)
        labeled_clips = self.labels.labeled_clips()

        # Drop pool entries that are already labeled (rounded-key match) or
        # that overlap a labeled clip on the same video.  One vectorized pass
        # over the columnar pool per labeled clip instead of a Python scan of
        # the whole pool.
        keep = np.ones(len(vids), dtype=bool)
        if labeled_clips and len(vids):
            rounded_starts = np.round(starts, 3)
            rounded_ends = np.round(ends, 3)
            for lc in labeled_clips:
                same_vid = vids == lc.vid
                if not same_vid.any():
                    continue
                overlap = same_vid & (starts < lc.end) & (lc.start < ends)
                exact = (
                    same_vid
                    & (rounded_starts == round(lc.start, 3))
                    & (rounded_ends == round(lc.end, 3))
                )
                keep &= ~(overlap | exact)
        keep_indices = np.flatnonzero(keep)
        candidates = [
            ClipSpec(int(vids[i]), float(starts[i]), float(ends[i])) for i in keep_indices
        ]
        candidate_features = vectors[keep_indices] if len(keep_indices) else np.empty((0, 0))

        labeled_features = np.empty((0, 0))
        if labeled_clips and self.features.store.count(feature_name):
            labeled_features = self.features.matrix(feature_name, labeled_clips)

        model = None
        if self.models.has_model(feature_name):
            model, __ = self.models.latest_model(feature_name)

        context = AcquisitionContext(
            candidates=candidates,
            candidate_features=candidate_features,
            labeled_clips=labeled_clips,
            labeled_features=labeled_features,
            model=model,
            label_counts=self.labels.class_counts(),
            target_label=target_label,
        )
        self._context_cache[feature_name] = (cache_key, context)
        return context

    def select_segments(
        self,
        batch_size: int,
        clip_duration: float,
        target_label: str | None = None,
        use_active: bool | None = None,
        feature_name: str | None = None,
    ) -> SelectionResult:
        """Choose the clips the user should label next.

        Args:
            batch_size: Number of clips to return (B).
            clip_duration: Duration of each clip in seconds (t).
            target_label: When set, use rare-category sampling for this class.
            use_active: Override the skew-based decision (used by the fixed
                acquisition baselines); None applies VE-sample's own decision.
            feature_name: Feature whose candidate pool to use; defaults to the
                bandit's current best.

        Raises:
            AcquisitionError: when no clips can be produced.
        """
        if batch_size < 1:
            raise AcquisitionError(f"batch_size must be >= 1, got {batch_size}")
        self._iteration += 1
        with telemetry.span(
            "select_segments",
            "alm",
            metric="alm.select_seconds",
            batch_size=batch_size,
        ) as span:
            result = self._select_segments_impl(
                batch_size, clip_duration, target_label, use_active, feature_name
            )
            span.set_attribute("acquisition", result.acquisition)
            span.set_attribute("feature", result.feature_name)
            return result

    def _select_segments_impl(
        self,
        batch_size: int,
        clip_duration: float,
        target_label: str | None,
        use_active: bool | None,
        feature_name: str | None,
    ) -> SelectionResult:
        """Span-free body of :meth:`select_segments`."""
        skew = self.decide_acquisition()
        active = skew.is_skewed if use_active is None else use_active
        feature = feature_name if feature_name is not None else self.current_feature()

        if target_label is not None:
            context = self._candidate_context(feature, target_label)
            if len(context.candidates) == 0:
                return self._random_selection(batch_size, clip_duration, skew, feature)
            clips = self._rare_category.select(context, batch_size, self.rng)
            clips = self._clamp_duration(clips, clip_duration)
            return SelectionResult(clips, self._rare_category.name, feature, skew)

        if not active:
            return self._random_selection(batch_size, clip_duration, skew, feature)

        context = self._candidate_context(feature, None)
        if len(context.candidates) < batch_size:
            # Candidate pool too small (e.g. right after the switch): fall back
            # to random sampling rather than blocking the user.
            return self._random_selection(batch_size, clip_duration, skew, feature)
        acquisition = (
            self._cluster_margin
            if self.config.active_acquisition == "cluster-margin"
            else self._coreset
        )
        clips = acquisition.select(context, batch_size, self.rng)
        clips = self._clamp_duration(clips, clip_duration)
        return SelectionResult(clips, acquisition.name, feature, skew)

    def _random_selection(
        self,
        batch_size: int,
        clip_duration: float,
        skew: SkewDecision,
        feature: str,
    ) -> SelectionResult:
        videos = self.videos.all()
        clips = self._random.select(
            videos,
            batch_size,
            clip_duration,
            self.rng,
            exclude_vids=self.labels.labeled_vids(),
        )
        return SelectionResult(clips, self._random.name, feature, skew)

    def _clamp_duration(self, clips: list[ClipSpec], clip_duration: float) -> list[ClipSpec]:
        """Trim candidate-pool windows down to the user-requested clip duration."""
        trimmed = []
        for clip in clips:
            if clip.duration <= clip_duration + 1e-9:
                trimmed.append(clip)
            else:
                midpoint = clip.midpoint
                half = clip_duration / 2.0
                start = max(clip.start, midpoint - half)
                trimmed.append(ClipSpec(clip.vid, start, start + clip_duration))
        return trimmed
