"""Cluster-Margin acquisition (Citovsky et al., 2021).

Combines uncertainty and diversity: compute the margin (difference between the
two highest class probabilities) of the latest model on every candidate, keep
the lowest-margin candidates, cluster them, and round-robin picks across
clusters from smallest to largest so the batch is diverse.

When no model has been trained yet, the function degrades gracefully to pure
diversity sampling (cluster, then round-robin), which is the behaviour the
prototype relies on during the first iterations after the switch to active
learning.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import AcquisitionError
from ...types import ClipSpec
from ..clustering import kmeans
from .base import AcquisitionContext, FeatureAcquisition

__all__ = ["ClusterMarginAcquisition"]


class ClusterMarginAcquisition(FeatureAcquisition):
    """Margin sampling diversified by round-robin over clusters."""

    name = "cluster-margin"
    requires_model = True

    def __init__(
        self,
        margin_pool_multiplier: float = 2.0,
        clusters_per_batch: int = 2,
    ) -> None:
        """Configure the method.

        Args:
            margin_pool_multiplier: The candidate shortlist contains
                ``multiplier * count`` lowest-margin clips before clustering.
            clusters_per_batch: Number of clusters per requested clip
                (Citovsky et al. use substantially more clusters than the
                batch size; the shortlist here is small so a small factor
                suffices).
        """
        if margin_pool_multiplier < 1.0:
            raise AcquisitionError("margin_pool_multiplier must be >= 1")
        if clusters_per_batch < 1:
            raise AcquisitionError("clusters_per_batch must be >= 1")
        self.margin_pool_multiplier = float(margin_pool_multiplier)
        self.clusters_per_batch = int(clusters_per_batch)

    def _margins(self, context: AcquisitionContext) -> np.ndarray:
        features = np.asarray(context.candidate_features, dtype=np.float64)
        if context.model is None or not context.model.is_fitted:
            # No model yet: treat every candidate as equally uncertain.
            return np.zeros(features.shape[0])
        probabilities = context.model.predict_proba(features)
        if probabilities.shape[1] < 2:
            return np.zeros(features.shape[0])
        top_two = np.partition(probabilities, -2, axis=1)[:, -2:]
        return top_two[:, 1] - top_two[:, 0]

    def select(
        self,
        context: AcquisitionContext,
        count: int,
        rng: np.random.Generator,
    ) -> list[ClipSpec]:
        """Select up to ``count`` low-margin, cluster-diverse candidates."""
        if count < 1:
            raise AcquisitionError(f"count must be >= 1, got {count}")
        candidates = list(context.candidates)
        if not candidates:
            raise AcquisitionError("cluster-margin needs a non-empty candidate pool")
        features = np.asarray(context.candidate_features, dtype=np.float64)
        if features.shape[0] != len(candidates):
            raise AcquisitionError(
                f"{len(candidates)} candidates but {features.shape[0]} feature rows"
            )
        count = min(count, len(candidates))

        margins = self._margins(context)
        shortlist_size = min(len(candidates), max(count, int(np.ceil(count * self.margin_pool_multiplier))))
        shortlist = np.argsort(margins, kind="stable")[:shortlist_size]

        num_clusters = min(len(shortlist), max(1, count * self.clusters_per_batch))
        clustering = kmeans(features[shortlist], num_clusters, rng=rng)

        # Round-robin across clusters, smallest cluster first (as in the paper
        # this ensures rare modes are represented in the batch).
        clusters = sorted(
            range(clustering.num_clusters),
            key=lambda c: len(clustering.members(c)) if len(clustering.members(c)) else np.inf,
        )
        per_cluster: dict[int, list[int]] = {}
        for cluster in clusters:
            members = clustering.members(cluster)
            # Order members within a cluster by ascending margin.
            ordered = members[np.argsort(margins[shortlist[members]], kind="stable")]
            per_cluster[cluster] = [int(shortlist[m]) for m in ordered]

        chosen: list[int] = []
        while len(chosen) < count:
            progressed = False
            for cluster in clusters:
                queue = per_cluster[cluster]
                if queue:
                    chosen.append(queue.pop(0))
                    progressed = True
                    if len(chosen) >= count:
                        break
            if not progressed:
                break
        return [candidates[i] for i in chosen]
