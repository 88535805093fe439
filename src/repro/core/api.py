"""VOCALExplore public API.

:class:`VOCALExplore` exposes the four methods of the paper's Table 1 —
``watch``, ``explore``, ``add_label``, and ``add_video`` — on top of the
exploration session, and provides a one-call builder that assembles the whole
system (storage, feature manager, model manager, ALM, scheduler) for a given
video corpus.

Example::

    from repro import VOCALExplore
    from repro.datasets import build_dataset

    dataset = build_dataset("k20-skew", seed=0)
    vocal = VOCALExplore.for_dataset(dataset)
    result = vocal.explore(batch_size=5, clip_duration=1.0)
    for segment in result.segments:
        vocal.add_label(segment.vid, segment.start, segment.end, "my-activity")
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..alm.manager import ActiveLearningManager
from ..config import VocalExploreConfig
from ..exceptions import ReproError
from ..features.feature_manager import FeatureManager
from ..features.pretrained import build_default_registry
from ..models.model_manager import ModelManager
from ..scheduler.cost_model import CostModel
from ..storage.storage_manager import StorageManager
from ..types import VideoSegment
from ..video.corpus import VideoCorpus
from ..video.decoder import Decoder
from ..video.sampler import ClipSampler
from .session import (
    ExplorationSession,
    ExploreResult,
    IterationSummary,
    RecoveryReport,
    SearchHit,
)

__all__ = ["VOCALExplore"]


class VOCALExplore:
    """Pay-as-you-go video exploration and model building."""

    def __init__(self, session: ExplorationSession) -> None:
        self._session: ExplorationSession | None = session

    # ------------------------------------------------------------ construction
    @classmethod
    def for_corpus(
        cls,
        corpus: VideoCorpus,
        vocabulary: Sequence[str] | None = None,
        feature_qualities: Mapping[str, float] | None = None,
        config: VocalExploreConfig | None = None,
        cost_model: CostModel | None = None,
        candidate_features: Sequence[str] | None = None,
    ) -> "VOCALExplore":
        """Assemble the full system for one synthetic video corpus.

        Args:
            corpus: The videos to explore.
            vocabulary: Label vocabulary; defaults to the corpus class names.
            feature_qualities: Signal quality per extractor for this corpus
                (how well each pretrained model's embedding separates the
                corpus's activities); defaults to 0.5 for every extractor.
            config: System configuration; defaults to the paper's settings.
            cost_model: Latency cost model; defaults to Table 3-derived costs.
            candidate_features: Names of the candidate extractors the ALM
                should consider; defaults to all registered extractors.  Only
                these extractors' weights are drawn at build.
        """
        config = config if config is not None else VocalExploreConfig()
        vocabulary = list(vocabulary) if vocabulary is not None else list(corpus.class_names)
        qualities = dict(feature_qualities) if feature_qualities is not None else {}

        storage = StorageManager()
        storage.videos.add_records(corpus.records())
        registry = build_default_registry(
            corpus.latent_dim, qualities, seed=config.seed, include_concat=False
        )
        sampler = ClipSampler()
        feature_manager = FeatureManager(
            registry, Decoder(corpus), storage.videos, storage.features, sampler
        )
        model_manager = ModelManager(
            feature_manager,
            storage.labels,
            storage.models,
            vocabulary,
            config.model,
            seed=config.seed,
        )
        candidates = (
            list(candidate_features) if candidate_features is not None else registry.names()
        )
        # Draw the candidates' weights now, so the first explore does not pay
        # for them; any other extractor draws its own if a caller names it.
        for name in candidates:
            if name in registry:
                registry.get(name).load_weights()
        alm = ActiveLearningManager(
            storage.videos,
            storage.labels,
            feature_manager,
            model_manager,
            candidates,
            config.alm,
            config.feature_selection,
            seed=config.seed,
        )
        session = ExplorationSession(
            corpus, storage, feature_manager, model_manager, alm, config, cost_model
        )
        return cls(session)

    @classmethod
    def for_dataset(cls, dataset, config: VocalExploreConfig | None = None) -> "VOCALExplore":
        """Assemble the system for a dataset built by :mod:`repro.datasets`."""
        return cls.for_corpus(
            dataset.train_corpus,
            vocabulary=dataset.class_names,
            feature_qualities=dataset.feature_qualities,
            config=config,
        )

    # ----------------------------------------------------------------- plumbing
    @property
    def session(self) -> ExplorationSession:
        """The underlying exploration session (full access for experiments).

        Raises:
            ReproError: once the handle is closed.
        """
        if self._session is None:
            raise ReproError("this VOCALExplore handle is closed")
        return self._session

    def close(self) -> None:
        """Close the session and release it.

        Idempotent.  The handle is unusable afterwards: it drops its session
        even when closing it fails, so the session's memory is freed as soon
        as its last outside reference goes.  ``VOCALExplore`` is also a
        context manager, so ``with VOCALExplore.for_dataset(...) as vocal:``
        closes automatically.
        """
        if self._session is None:
            return
        try:
            self._session.close()
        finally:
            self._session = None

    def __enter__(self) -> "VOCALExplore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- Table 1
    def watch(self, vid: int, start: float, end: float) -> list[VideoSegment]:
        """Return consecutive clips of the requested window with predicted labels."""
        return self.session.watch(vid, start, end)

    def explore(
        self,
        batch_size: int | None = None,
        clip_duration: float | None = None,
        label: str | None = None,
    ) -> ExploreResult:
        """Return clips that, once labeled, most improve the model."""
        return self.session.explore(batch_size, clip_duration, label)

    def add_label(self, vid: int, start: float, end: float, label: str) -> None:
        """Save one label as metadata."""
        self.session.add_label(vid, start, end, label)

    def add_video(self, path: str, duration: float, start_time: float = 0.0, fps: float = 30.0) -> int:
        """Register a new video as a candidate for labels and predictions."""
        return self.session.add_video(path, duration, start_time, fps)

    # -------------------------------------------------------- similarity search
    def search(self, query, k: int = 10, feature_name: str | None = None) -> list[SearchHit]:
        """Find the ``k`` stored clips most similar to ``query``.

        ``query`` is a clip — a ``(vid, start, end)`` tuple or a ``ClipSpec``
        — or a raw feature vector (numpy array or list).  Runs an exact scan
        of every stored vector of the extractor, with its latency charged
        against the simulated clock.
        """
        return self.session.search(query, k=k, feature_name=feature_name)

    # ------------------------------------------------------ durable checkpoints
    def checkpoint(self) -> int:
        """Write an atomic full-state snapshot; returns the generation number.

        Requires ``SchedulerConfig.checkpoint_dir``.  With
        ``checkpoint_every`` set, snapshots are also taken automatically
        every N finished iterations.
        """
        return self.session.checkpoint()

    def resume(self) -> RecoveryReport:
        """Restore this freshly built instance from its checkpoint directory.

        Recovers the newest valid snapshot plus the journal tail; the run
        continues bit-identically from the recovered iteration.  See :class:`~repro.core.session.RecoveryReport`
        for what the journal tail preserved.
        """
        return self.session.resume()

    # -------------------------------------------------------------- statistics
    def finish_iteration(self) -> IterationSummary:
        """Finalise the current iteration (normally done implicitly by ``explore``)."""
        return self.session.finish_iteration()

    def cumulative_visible_latency(self) -> float:
        """Total user-visible latency accumulated so far (simulated seconds)."""
        return self.session.cumulative_visible_latency()

    def summaries(self) -> list[IterationSummary]:
        """Per-iteration summaries (acquisition used, feature used, latency, S_max)."""
        return self.session.summaries()

    def current_feature(self) -> str:
        """Feature extractor currently used for predictions."""
        return self.session.current_feature()
