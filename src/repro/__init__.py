"""Reproduction of VOCALExplore: Pay-as-You-Go Video Data Exploration and Model Building.

The package implements the full system described in the VLDB 2023 paper —
Storage Manager, Feature Manager, Model Manager, Active Learning Manager, and
Task Scheduler — on top of a simulated video substrate, plus the experiment
harness that regenerates every table and figure of the paper's evaluation.

Quick start::

    from repro import VOCALExplore
    from repro.datasets import build_dataset

    dataset = build_dataset("deer", seed=0)
    vocal = VOCALExplore.for_dataset(dataset)
    result = vocal.explore(batch_size=5, clip_duration=1.0)
"""

from .config import (
    ALMConfig,
    ExploreConfig,
    FeatureSelectionConfig,
    ModelConfig,
    SchedulerConfig,
    VocalExploreConfig,
)
from .core import (
    ExplorationSession,
    ExploreResult,
    IterationSummary,
    NoisyOracleUser,
    OracleUser,
    SearchHit,
    VOCALExplore,
)
from .exceptions import ReproError
from .types import ClipSpec, FeatureVector, Label, Prediction, VideoRecord, VideoSegment

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "VOCALExplore",
    "ExplorationSession",
    "ExploreResult",
    "IterationSummary",
    "SearchHit",
    "OracleUser",
    "NoisyOracleUser",
    "VocalExploreConfig",
    "ALMConfig",
    "FeatureSelectionConfig",
    "SchedulerConfig",
    "ModelConfig",
    "ExploreConfig",
    "ReproError",
    "ClipSpec",
    "Label",
    "VideoRecord",
    "FeatureVector",
    "Prediction",
    "VideoSegment",
]
