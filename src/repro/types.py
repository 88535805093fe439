"""Core value types shared across the VOCALExplore reproduction.

These are deliberately small, immutable dataclasses: the storage manager keeps
the authoritative copies in its record lists, and the rest of the system
passes these records around by value.  Times are expressed in seconds from the
start of each video unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .exceptions import InvalidClipError, SchemaError

__all__ = [
    "VideoRecord",
    "ClipSpec",
    "Label",
    "FeatureVector",
    "Prediction",
    "VideoSegment",
    "TrainedModelInfo",
    "check_field",
]

#: Python/numpy scalar types each stored field type accepts.
_ACCEPTED = {
    "int": (int, np.integer),
    "float": (int, float, np.integer, np.floating),
    "str": (str,),
}


def check_field(name: str, value: Any, type_name: str) -> None:
    """Reject ``value`` unless it fits a stored field of ``type_name``.

    The label and video stores call this before storing a record.  Bools
    never pass, although Python treats them as ints.

    Raises:
        SchemaError: naming the field and the offending type.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, _ACCEPTED[type_name]):
        raise SchemaError(f"column {name!r} expects {type_name}, got {type(value).__name__}")


@dataclass(frozen=True)
class VideoRecord:
    """Metadata describing one video file in the corpus.

    Attributes:
        vid: Unique integer id assigned by the storage manager.
        path: Location of the (simulated) encoded video file.
        duration: Video length in seconds.
        start_time: Absolute start timestamp in seconds (e.g. seconds since
            midnight for the deer-collar recordings); used only as metadata.
        fps: Frames per second of the encoded video.
    """

    vid: int
    path: str
    duration: float
    start_time: float = 0.0
    fps: float = 30.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise InvalidClipError(
                f"video {self.vid} must have positive duration, got {self.duration}"
            )
        if self.fps <= 0:
            raise InvalidClipError(f"video {self.vid} must have positive fps, got {self.fps}")


@dataclass(frozen=True, order=True)
class ClipSpec:
    """A time interval within a single video.

    Clips are the unit of sampling, labeling, feature extraction, and
    prediction throughout the system.
    """

    vid: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise InvalidClipError(
                f"clip on video {self.vid} must have end > start, got [{self.start}, {self.end}]"
            )
        if self.start < 0:
            raise InvalidClipError(f"clip on video {self.vid} must start at >= 0, got {self.start}")

    @property
    def duration(self) -> float:
        """Clip length in seconds."""
        return self.end - self.start

    @property
    def midpoint(self) -> float:
        """Clip midpoint in seconds; used to align frame- and clip-level features."""
        return (self.start + self.end) / 2.0

    def overlaps(self, other: "ClipSpec") -> bool:
        """Return True when both clips refer to the same video and intersect in time."""
        if self.vid != other.vid:
            return False
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class Label:
    """A user-provided annotation over a clip (the ``AddLabel`` payload)."""

    vid: int
    start: float
    end: float
    label: str

    @property
    def clip(self) -> ClipSpec:
        """Clip covered by this label."""
        return ClipSpec(self.vid, self.start, self.end)


@dataclass(frozen=True)
class FeatureVector:
    """A feature embedding for one clip produced by one extractor.

    Mirrors the paper's ``(fid, vid, start, end, vector)`` tuples.
    """

    fid: str
    vid: int
    start: float
    end: float
    vector: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.vector.ndim != 1:
            raise ValueError(f"feature vector must be 1-D, got shape {self.vector.shape}")

    @property
    def clip(self) -> ClipSpec:
        """Clip covered by this feature vector."""
        return ClipSpec(self.vid, self.start, self.end)

    @property
    def dim(self) -> int:
        """Dimensionality of the embedding."""
        return int(self.vector.shape[0])


@dataclass(frozen=True)
class Prediction:
    """Model output for one clip: a probability per label in the vocabulary."""

    vid: int
    start: float
    end: float
    probabilities: Mapping[str, float]
    feature_name: str = ""
    model_version: int = -1

    @property
    def top_label(self) -> str:
        """Label with the highest predicted probability."""
        return max(self.probabilities, key=self.probabilities.__getitem__)

    @property
    def top_probability(self) -> float:
        """Probability of the top label."""
        return float(self.probabilities[self.top_label])

    def margin(self) -> float:
        """Difference between the two highest probabilities (1.0 for a single class)."""
        ranked = sorted(self.probabilities.values(), reverse=True)
        if len(ranked) < 2:
            return 1.0
        return float(ranked[0] - ranked[1])


@dataclass(frozen=True)
class VideoSegment:
    """A clip returned to the user by ``Watch`` or ``Explore``.

    ``prediction`` is ``None`` until the system has trained its first model
    (the prototype requires at least five labels before predicting).
    """

    clip: ClipSpec
    prediction: Prediction | None = None

    @property
    def vid(self) -> int:
        return self.clip.vid

    @property
    def start(self) -> float:
        return self.clip.start

    @property
    def end(self) -> float:
        return self.clip.end

    @property
    def predicted_label(self) -> str | None:
        """Top predicted label, or None when no prediction is attached."""
        if self.prediction is None:
            return None
        return self.prediction.top_label


@dataclass(frozen=True)
class TrainedModelInfo:
    """Metadata registered for each trained model checkpoint."""

    model_id: int
    feature_name: str
    version: int
    classes: Sequence[str]
    num_labels: int
    created_at: float
    path: str = ""
