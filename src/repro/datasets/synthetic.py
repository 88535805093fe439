"""Synthetic dataset generation.

A :class:`DatasetSpec` describes one dataset's statistics (class names, class
distribution, corpus sizes, clip duration, multi-activity structure); the
generator turns it into a :class:`Dataset` with a training corpus, a held-out
evaluation corpus sharing the same latent class prototypes, and the
per-extractor signal qualities used by the simulated feature extractors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..exceptions import DatasetError
from ..types import ClipSpec
from ..video.activity import ActivitySegment, ActivityTrack
from ..video.corpus import VideoCorpus

__all__ = ["DatasetSpec", "Dataset", "generate_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Statistical description of one synthetic dataset."""

    name: str
    class_names: tuple[str, ...]
    #: Per-class probability of being a video's dominant activity (sums to 1).
    class_probabilities: tuple[float, ...]
    num_train_videos: int
    num_eval_videos: int
    video_duration: float = 10.0
    #: Probability that a video contains a second, co-occurring activity.
    co_occurrence_rate: float = 0.0
    #: Per-extractor signal quality for this dataset (paper Figure 4 ranking).
    feature_qualities: Mapping[str, float] = field(default_factory=dict)
    #: Extractors the paper considers "correct" picks for this dataset (Table 4).
    correct_features: tuple[str, ...] = ()
    #: Whether the paper lists this dataset as skewed (Table 2).
    skewed: bool = False
    #: Paper-reported sizes, kept for Table 2 reporting.
    paper_train_videos: int | None = None
    paper_eval_videos: int | None = None

    def __post_init__(self) -> None:
        if len(self.class_names) != len(self.class_probabilities):
            raise DatasetError("class_names and class_probabilities must have the same length")
        if not self.class_names:
            raise DatasetError("a dataset needs at least one class")
        total = float(sum(self.class_probabilities))
        if not np.isclose(total, 1.0, atol=1e-6):
            raise DatasetError(f"class probabilities must sum to 1, got {total}")
        if self.num_train_videos < 1 or self.num_eval_videos < 1:
            raise DatasetError("datasets need at least one train and one eval video")
        if not 0.0 <= self.co_occurrence_rate <= 1.0:
            raise DatasetError("co_occurrence_rate must be in [0, 1]")


@dataclass
class Dataset:
    """A generated dataset: training corpus, evaluation corpus, and metadata."""

    spec: DatasetSpec
    train_corpus: VideoCorpus
    eval_corpus: VideoCorpus
    seed: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def class_names(self) -> list[str]:
        return list(self.spec.class_names)

    @property
    def feature_qualities(self) -> dict[str, float]:
        return dict(self.spec.feature_qualities)

    @property
    def correct_features(self) -> tuple[str, ...]:
        return self.spec.correct_features

    @property
    def skewed(self) -> bool:
        return self.spec.skewed

    def eval_examples(self) -> tuple[list[ClipSpec], list[str]]:
        """One centred clip per evaluation video with its ground-truth label."""
        clips: list[ClipSpec] = []
        labels: list[str] = []
        for video in self.eval_corpus.videos():
            duration = video.record.duration
            start = max(0.0, duration / 2.0 - 0.5)
            clip = ClipSpec(video.vid, start, min(start + 1.0, duration))
            label = self.eval_corpus.dominant_label(clip)
            if label is None:
                continue
            clips.append(clip)
            labels.append(label)
        return clips, labels

    def train_class_counts(self) -> dict[str, int]:
        """Number of training videos per dominant class."""
        counts = {name: 0 for name in self.class_names}
        for video in self.train_corpus.videos():
            dominant = video.track.dominant_activity(0.0, video.record.duration)
            if dominant is not None:
                counts[dominant] += 1
        return counts

    def describe(self) -> dict[str, object]:
        """Summary row matching the paper's Table 2 columns."""
        return {
            "dataset": self.spec.name,
            "num_classes": len(self.class_names),
            "skew": "Skewed" if self.spec.skewed else "Uniform",
            "train_videos": len(self.train_corpus),
            "eval_videos": len(self.eval_corpus),
            "paper_train_videos": self.spec.paper_train_videos,
            "paper_eval_videos": self.spec.paper_eval_videos,
        }


def _build_track(
    duration: float,
    dominant: str,
    co_occurring: str | None,
    rng: np.random.Generator,
) -> ActivityTrack:
    """Build a video's activity track: one dominant activity, optional overlap."""
    segments = [ActivitySegment(0.0, duration, dominant)]
    if co_occurring is not None and co_occurring != dominant:
        overlap_length = float(rng.uniform(0.2, 0.5)) * duration
        overlap_start = float(rng.uniform(0.0, duration - overlap_length))
        segments.append(
            ActivitySegment(overlap_start, overlap_start + overlap_length, co_occurring)
        )
    return ActivityTrack(duration, segments)


def _populate_corpus(
    corpus: VideoCorpus,
    spec: DatasetSpec,
    num_videos: int,
    probabilities: np.ndarray,
    rng: np.random.Generator,
) -> None:
    class_names = list(spec.class_names)
    # Guarantee that every class with non-negligible probability appears at
    # least once, then fill the remainder by sampling the distribution.
    assignments: list[str] = []
    for name, probability in zip(class_names, probabilities):
        if probability > 0 and len(assignments) < num_videos:
            assignments.append(name)
    while len(assignments) < num_videos:
        assignments.append(str(rng.choice(class_names, p=probabilities)))
    rng.shuffle(assignments)

    tracks = []
    for dominant in assignments[:num_videos]:
        co_occurring = None
        if spec.co_occurrence_rate > 0 and rng.random() < spec.co_occurrence_rate:
            co_occurring = str(rng.choice(class_names, p=probabilities))
        tracks.append(_build_track(spec.video_duration, dominant, co_occurring, rng))
    corpus.add_videos(tracks)


def generate_dataset(spec: DatasetSpec, seed: int = 0) -> Dataset:
    """Generate the train and eval corpora for one dataset spec.

    The evaluation corpus is always class-balanced (the paper evaluates even
    the skewed datasets on an unskewed validation split) and shares the same
    latent class prototypes as the training corpus, so models trained on
    training features generalise to evaluation features.
    """
    train_corpus = VideoCorpus(spec.class_names, seed=seed)
    eval_corpus = VideoCorpus(spec.class_names, seed=seed)

    train_rng = np.random.default_rng((seed, 1))
    eval_rng = np.random.default_rng((seed, 2))

    train_probabilities = np.asarray(spec.class_probabilities, dtype=np.float64)
    eval_probabilities = np.full(len(spec.class_names), 1.0 / len(spec.class_names))

    _populate_corpus(train_corpus, spec, spec.num_train_videos, train_probabilities, train_rng)
    _populate_corpus(eval_corpus, spec, spec.num_eval_videos, eval_probabilities, eval_rng)
    return Dataset(spec=spec, train_corpus=train_corpus, eval_corpus=eval_corpus, seed=seed)
