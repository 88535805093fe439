"""Exception hierarchy for the VOCALExplore reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class StorageError(ReproError):
    """Raised by the storage manager and its stores."""


class SchemaError(StorageError):
    """Raised when a stored record's field has the wrong type."""


class CheckpointError(StorageError):
    """Raised by the durable checkpoint/restore subsystem."""


class VideoError(ReproError):
    """Raised by the synthetic video substrate."""


class UnknownVideoError(VideoError):
    """Raised when a video id is not present in the corpus."""


class InvalidClipError(VideoError):
    """Raised when a clip specification does not fall inside its video."""


class FeatureError(ReproError):
    """Raised by the feature manager and extractors."""


class UnknownExtractorError(FeatureError):
    """Raised when a feature extractor name is not registered."""


class MissingFeatureError(FeatureError):
    """Raised when a requested feature vector has not been extracted yet."""


class VectorIndexError(ReproError):
    """Raised by the vector-index subsystem (``repro.index``)."""


class ServingError(ReproError):
    """Raised by the multi-session serving layer (``repro.serving``)."""


class ProtocolError(ServingError):
    """Raised when a serving request or response violates the wire protocol."""


class AdmissionError(ServingError):
    """Raised when admission control rejects a session or a request."""


class SessionNotFoundError(ServingError):
    """Raised when a named serving session does not exist."""


class DeadlineExceededError(ServingError):
    """Raised when a request exceeds its per-class wall-clock deadline.

    The request's work is cancelled cooperatively at the next scheduler
    boundary; the session itself stays healthy (rolled back if the request
    had already mutated state) and the request is safe to retry.
    """


class SessionQuarantinedError(ServingError):
    """Raised when a session was quarantined after an unexpected failure.

    The supervisor rolled the session back to its last durable checkpoint
    (re-applying the journal tail), so no acknowledged label is lost; the
    error message carries a recovery report describing what was restored.
    """


class ModelError(ReproError):
    """Raised by the model manager."""


class NotFittedError(ModelError):
    """Raised when predicting with a model that has not been trained."""


class InsufficientLabelsError(ModelError):
    """Raised when training is requested with too few labels or classes."""


class ALMError(ReproError):
    """Raised by the active learning manager."""


class AcquisitionError(ALMError):
    """Raised when an acquisition function cannot produce a sample."""


class FeatureSelectionError(ALMError):
    """Raised by the rising-bandit feature selector."""


class SchedulerError(ReproError):
    """Raised by the task scheduler."""


class TaskError(SchedulerError):
    """Raised when a scheduled task fails to execute."""


class TelemetryError(ReproError):
    """Raised by the telemetry subsystem (``repro.telemetry``)."""


class DatasetError(ReproError):
    """Raised by the synthetic dataset catalog."""


class ExperimentError(ReproError):
    """Raised by the experiment harness."""
