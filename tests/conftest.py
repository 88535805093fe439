"""Shared fixtures for the test suite.

The fixtures build small synthetic corpora and datasets so individual tests
stay fast; session-scoped fixtures are used for the objects that are expensive
to construct and safe to share (they are treated as read-only by tests).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import VocalExploreConfig
from repro.core.api import VOCALExplore
from repro.core.oracle import OracleUser
from repro.datasets.synthetic import DatasetSpec, generate_dataset
from repro.features.pretrained import build_default_registry
from repro.features.feature_manager import FeatureManager
from repro.models.model_manager import ModelManager
from repro.storage.storage_manager import StorageManager
from repro.video.activity import ActivitySegment, ActivityTrack
from repro.video.corpus import VideoCorpus
from repro.video.decoder import Decoder
from repro.video.sampler import ClipSampler


def pytest_collection_modifyitems(config, items):
    """Run the collected tests last-to-first when ``REPRO_TEST_ORDER=reverse``.

    CI reruns suites this way so a test that passes only because of what ran
    before it (shared state, leaked threads, warm caches) fails loudly.
    """
    if os.environ.get("REPRO_TEST_ORDER") == "reverse":
        items.reverse()


def make_corpus(num_videos: int = 30, classes=("walk", "eat", "rest"), seed: int = 7) -> VideoCorpus:
    """Build a small corpus with one activity per video, round-robin over classes."""
    corpus = VideoCorpus(classes, seed=seed)
    for i in range(num_videos):
        activity = classes[i % len(classes)]
        corpus.add_video(ActivityTrack(10.0, [ActivitySegment(0.0, 10.0, activity)]))
    return corpus


def make_skewed_corpus(num_videos: int = 60, seed: int = 11) -> VideoCorpus:
    """Corpus skewed 70/20/10 over three classes."""
    classes = ("common", "medium", "rare")
    corpus = VideoCorpus(classes, seed=seed)
    rng = np.random.default_rng(seed)
    for __ in range(num_videos):
        activity = rng.choice(classes, p=[0.7, 0.2, 0.1])
        corpus.add_video(ActivityTrack(10.0, [ActivitySegment(0.0, 10.0, str(activity))]))
    return corpus


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def small_corpus() -> VideoCorpus:
    return make_corpus()


@pytest.fixture
def skewed_corpus() -> VideoCorpus:
    return make_skewed_corpus()


@pytest.fixture
def tiny_dataset():
    """A 4-class dataset small enough for end-to-end session tests."""
    spec = DatasetSpec(
        name="tiny",
        class_names=("a", "b", "c", "d"),
        class_probabilities=(0.55, 0.25, 0.12, 0.08),
        num_train_videos=48,
        num_eval_videos=24,
        video_duration=8.0,
        feature_qualities={"r3d": 0.30, "mvit": 0.28, "clip": 0.15, "clip_pooled": 0.18},
        correct_features=("r3d", "mvit"),
        skewed=True,
    )
    return generate_dataset(spec, seed=3)


@pytest.fixture
def uniform_dataset():
    """A uniform 3-class dataset for acquisition tests."""
    spec = DatasetSpec(
        name="tiny-uniform",
        class_names=("x", "y", "z"),
        class_probabilities=(1 / 3, 1 / 3, 1 / 3),
        num_train_videos=36,
        num_eval_videos=18,
        video_duration=8.0,
        feature_qualities={"r3d": 0.3, "mvit": 0.3, "clip": 0.25, "clip_pooled": 0.25},
        correct_features=("r3d", "mvit"),
        skewed=False,
    )
    return generate_dataset(spec, seed=5)


def build_stack(corpus: VideoCorpus, qualities=None, vocabulary=None, seed: int = 0):
    """Assemble storage + feature manager + model manager for a corpus."""
    qualities = qualities if qualities is not None else {"r3d": 0.4, "mvit": 0.35, "clip": 0.2}
    storage = StorageManager()
    storage.videos.add_records(corpus.records())
    registry = build_default_registry(corpus.latent_dim, qualities, seed=seed)
    feature_manager = FeatureManager(
        registry, Decoder(corpus), storage.videos, storage.features, ClipSampler()
    )
    model_manager = ModelManager(
        feature_manager,
        storage.labels,
        storage.models,
        vocabulary if vocabulary is not None else list(corpus.class_names),
        seed=seed,
    )
    return storage, feature_manager, model_manager


@pytest.fixture
def managed_stack(small_corpus):
    """(storage, feature_manager, model_manager) over the small corpus."""
    return build_stack(small_corpus)


@pytest.fixture
def vocal_tiny(tiny_dataset):
    """A fully wired VOCALExplore instance over the tiny dataset."""
    vocal = VOCALExplore.for_corpus(
        tiny_dataset.train_corpus,
        vocabulary=tiny_dataset.class_names,
        feature_qualities=tiny_dataset.feature_qualities,
        config=VocalExploreConfig(seed=1),
    )
    return vocal


@pytest.fixture
def oracle_tiny(tiny_dataset) -> OracleUser:
    return OracleUser(tiny_dataset.train_corpus, labeling_time=10.0)
