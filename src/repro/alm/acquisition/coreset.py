"""Greedy coreset (k-center) acquisition.

Implements the greedy 2-approximation of the k-center objective from Sener &
Savarese (2018): repeatedly pick the candidate farthest from the set of
already-covered points (labeled clips plus previously picked candidates).
It is a density/diversity method — it needs features but no trained model.

The labeled-distance initialisation routes through the ``repro.index``
subsystem: a 1-NN search of every candidate against the labeled set replaces
the seed's ``(n, L, d)`` difference tensor, so memory stays ``O(n + L)`` and
an ANN backend can be substituted for very large pools.
"""

from __future__ import annotations

import numpy as np

from ...config import IndexConfig
from ...exceptions import AcquisitionError
from ...index import make_index, pairwise_sq_distances
from ...types import ClipSpec
from .base import AcquisitionContext, FeatureAcquisition

__all__ = ["CoresetAcquisition"]


class CoresetAcquisition(FeatureAcquisition):
    """Greedy k-center selection over the candidate feature pool."""

    name = "coreset"
    requires_model = False

    def __init__(self, index: IndexConfig = IndexConfig(), seed: int = 0) -> None:
        """Configure the nearest-neighbour backend used for initialisation.

        Args:
            index: ``repro.index`` backend for the candidate-to-labeled 1-NN
                search.  The exact default reproduces the brute-force
                selections (distances agree with the difference-tensor
                formulation to float rounding, so only degenerate sub-ulp
                ties could differ).
            seed: Seed for the backend's RNG (ANN backends only).
        """
        self.index = index
        self.seed = int(seed)

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
            index = make_index(self.index, seed=self.seed)
            index.build(labeled)
            nearest_sq, nearest = index.search(features, 1)
            distances = nearest_sq[:, 0]
            # An ANN backend can miss (inf sentinel), which would make the
            # unreachable candidates look maximally far; patch misses with the
            # exact kernel against the labeled set.
            missed = nearest[:, 0] < 0
            if missed.any():
                distances = distances.copy()
                distances[missed] = pairwise_sq_distances(features[missed], labeled).min(axis=1)
            distances = np.sqrt(distances)
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
