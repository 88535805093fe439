"""Greedy coreset (k-center) acquisition.

Implements the greedy 2-approximation of the k-center objective from Sener &
Savarese (2018): repeatedly pick the candidate farthest from the set of
already-covered points (labeled clips plus previously picked candidates).
It is a density/diversity method — it needs features but no trained model.

The labeled-distance initialisation is an exact 1-NN scan
(``repro.index.ExactScan``) of every candidate against the labeled set, which
replaces the seed's ``(n, L, d)`` difference tensor, so memory stays
``O(n + L)``.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import AcquisitionError
from ...index import ExactScan
from ...types import ClipSpec
from .base import AcquisitionContext, FeatureAcquisition

__all__ = ["CoresetAcquisition"]


class CoresetAcquisition(FeatureAcquisition):
    """Greedy k-center selection over the candidate feature pool."""

    name = "coreset"
    requires_model = False

    def select(
        self,
        context: AcquisitionContext,
        count: int,
        rng: np.random.Generator,
    ) -> list[ClipSpec]:
        """Pick up to ``count`` candidates maximising minimum distance to covered points."""
        if count < 1:
            raise AcquisitionError(f"count must be >= 1, got {count}")
        candidates = list(context.candidates)
        if not candidates:
            raise AcquisitionError("coreset needs a non-empty candidate pool")
        features = np.asarray(context.candidate_features, dtype=np.float64)
        if features.shape[0] != len(candidates):
            raise AcquisitionError(
                f"{len(candidates)} candidates but {features.shape[0]} feature rows"
            )

        labeled = np.asarray(context.labeled_features, dtype=np.float64)
        chosen: list[int] = []
        count = min(count, len(candidates))
        if labeled.size:
            # The exact scan reproduces the seed's difference-tensor selections
            # (distances agree to float rounding, so only degenerate sub-ulp
            # ties could differ).
            nearest_sq, __ = ExactScan(labeled).search(features, 1)
            distances = np.sqrt(nearest_sq[:, 0])
        else:
            # With no labeled points yet, a random candidate seeds the batch and
            # becomes its first member.
            seed = int(rng.integers(0, len(candidates)))
            chosen.append(seed)
            distances = np.linalg.norm(features - features[seed], axis=1)
            distances[seed] = -np.inf

        while len(chosen) < count:
            next_index = int(np.argmax(distances))
            if not np.isfinite(distances[next_index]) and chosen:
                break
            chosen.append(next_index)
            new_distances = np.linalg.norm(features - features[next_index], axis=1)
            distances = np.minimum(distances, new_distances)
            distances[next_index] = -np.inf
        return [candidates[i] for i in chosen]
