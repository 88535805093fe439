"""Latency cost model.

Maps the system's work items to simulated durations.  Feature-extraction costs
derive from the throughputs in the paper's Table 3 (10-second videos per
second per extractor); other costs are calibrated so their relative magnitudes
match the paper's observations: T_f >> T_i, T_m usually below the 10-second
user labeling time, and T_s negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import SchedulerError
from ..features.extractor import ExtractorSpec

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Simulated duration of each task type."""

    #: Setup cost of building one feature-extraction pipeline (DALI pipeline).
    pipeline_setup_time: float = 1.0
    #: Reference video duration the Table 3 throughputs are quoted for.
    reference_video_duration: float = 10.0
    #: Inference time per clip over already-extracted features (T_i).
    inference_time_per_clip: float = 0.02
    #: Sample-selection time per clip for metadata-only acquisition (T_s).
    selection_time_random: float = 0.005
    #: Sample-selection time per clip for feature-based acquisition.
    selection_time_active: float = 0.05
    #: Per-(query, scanned-vector) cost of one similarity search.
    search_time_per_vector: float = 2e-7
    #: Fixed plus per-label components of one model-training task (T_m).
    training_base_time: float = 1.0
    training_time_per_label: float = 0.02
    #: Fixed plus per-label components of one cross-validation fold.
    evaluation_fold_base_time: float = 0.4
    evaluation_fold_time_per_label: float = 0.01
    #: Folds used by feature evaluation (T_e is folds x fold cost).
    evaluation_folds: int = 3

    # ------------------------------------------------------------ feature costs
    def video_extraction_time(self, spec: ExtractorSpec, video_duration: float) -> float:
        """Time to extract all feature windows of one video with one extractor."""
        if video_duration <= 0:
            raise SchedulerError(f"video_duration must be > 0, got {video_duration}")
        return (video_duration / self.reference_video_duration) / spec.throughput

    def clip_extraction_time(self, spec: ExtractorSpec, clip_duration: float) -> float:
        """Time to extract the feature window covering one clip."""
        clip_duration = max(clip_duration, 1.0)
        return (clip_duration / self.reference_video_duration) / spec.throughput

    def extraction_batch_time(
        self,
        spec: ExtractorSpec,
        num_videos: int,
        video_duration: float,
        pipelines: int = 1,
    ) -> float:
        """Time to extract features from a batch of videos, including pipeline setup."""
        if num_videos <= 0:
            return 0.0
        return pipelines * self.pipeline_setup_time + num_videos * self.video_extraction_time(
            spec, video_duration
        )

    # ------------------------------------------------------------- other costs
    def inference_time(self, num_clips: int) -> float:
        """T_i for a batch of clips."""
        return max(0, num_clips) * self.inference_time_per_clip

    def selection_time(self, num_clips: int, active: bool) -> float:
        """T_s for selecting a batch of clips."""
        per_clip = self.selection_time_active if active else self.selection_time_random
        return max(0, num_clips) * per_clip

    def search_time(self, num_queries: int, num_vectors: int) -> float:
        """T_s-style cost of a similarity search over ``num_vectors`` stored vectors.

        The search is exact, so every query scans every stored vector.
        """
        return max(0, num_queries) * max(0, num_vectors) * self.search_time_per_vector

    def training_time(self, num_labels: int) -> float:
        """T_m for training one linear probe on ``num_labels`` labels."""
        return self.training_base_time + max(0, num_labels) * self.training_time_per_label

    def evaluation_time(self, num_labels: int) -> float:
        """T_e for one feature's cross-validated quality estimate."""
        fold_cost = self.evaluation_fold_base_time + max(0, num_labels) * self.evaluation_fold_time_per_label
        return self.evaluation_folds * fold_cost

    # --------------------------------------------------------------- schedules
    def jit_training_offset(self, batch_size: int, user_labeling_time: float, num_labels: int) -> float:
        """Offset (seconds into the labeling window) at which JIT training starts.

        Implements Section 4.1: schedule training after
        ``max(0, B - ceil(T_m / T_user))`` labels have been provided, so the
        model is ready by the next Explore call whenever possible.
        """
        if user_labeling_time <= 0:
            return 0.0
        training = self.training_time(num_labels)
        labels_before_training = max(0, batch_size - int(-(-training // user_labeling_time)))
        return labels_before_training * user_labeling_time
