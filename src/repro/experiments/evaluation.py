"""Held-out evaluation of models trained during exploration.

The paper measures macro F1 on a held-out evaluation split after every
labeling step.  The evaluator owns the evaluation corpus, builds extractors
identical to the session's (same seed and per-dataset qualities, so the
projection matrices match), extracts evaluation features once per extractor,
and scores any trained model against the full vocabulary.
"""

from __future__ import annotations

import numpy as np

from ..datasets.synthetic import Dataset
from ..exceptions import ExperimentError
from ..features.extractor import ExtractorRegistry
from ..features.pretrained import build_default_registry
from ..models.linear import SoftmaxRegression
from ..models.metrics import macro_f1
from ..models.model_manager import ModelManager
from ..types import ClipSpec
from ..video.decoder import Decoder

__all__ = ["ModelEvaluator"]


class ModelEvaluator:
    """Scores trained models on a dataset's held-out evaluation corpus."""

    def __init__(self, dataset: Dataset, seed: int = 0, registry: ExtractorRegistry | None = None) -> None:
        self.dataset = dataset
        self.vocabulary = dataset.class_names
        self._decoder = Decoder(dataset.eval_corpus)
        self._registry = (
            registry
            if registry is not None
            else build_default_registry(
                dataset.eval_corpus.latent_dim,
                dataset.feature_qualities,
                seed=seed,
                include_concat=True,
            )
        )
        clips, labels = dataset.eval_examples()
        if not clips:
            raise ExperimentError(f"dataset {dataset.name!r} produced no evaluation examples")
        self._eval_clips: list[ClipSpec] = clips
        self._eval_labels: list[str] = labels
        self._feature_cache: dict[str, np.ndarray] = {}

    @property
    def num_examples(self) -> int:
        return len(self._eval_clips)

    def eval_features(self, feature_name: str) -> np.ndarray:
        """Evaluation feature matrix for one extractor (cached after first use)."""
        if feature_name not in self._feature_cache:
            extractor = self._registry.get(feature_name)
            decoded = self._decoder.decode_batch(self._eval_clips)
            self._feature_cache[feature_name] = extractor.extract_batch(decoded)
        return self._feature_cache[feature_name]

    def evaluate_model(self, model: SoftmaxRegression, feature_name: str) -> float:
        """Macro F1 of a trained model over the evaluation set."""
        features = self.eval_features(feature_name)
        predictions = model.predict(features)
        return macro_f1(self._eval_labels, predictions, self.vocabulary)

    def evaluate_manager(self, model_manager: ModelManager, feature_name: str) -> float:
        """Macro F1 of the latest model a Model Manager holds for one feature.

        Returns 0.0 when no model has been trained yet (the paper's curves also
        start at zero before the first model exists).
        """
        if not model_manager.has_model(feature_name):
            return 0.0
        model, __ = model_manager.latest_model(feature_name)
        return self.evaluate_model(model, feature_name)
