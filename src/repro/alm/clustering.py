"""Lightweight k-means clustering.

Cluster-Margin sampling (Citovsky et al., 2021) first clusters the candidate
pool and then round-robins margin-sampled examples across clusters.  The
prototype uses an off-the-shelf clustering routine; this module provides a
small, dependency-free k-means (k-means++ initialisation, Lloyd iterations)
sufficient for that purpose.

All nearest-centroid math comes from the ``repro.index`` subsystem: the
default exact path runs its shared norm-expansion kernel (bit-identical
assignments, centroids, and inertia vs the seed implementation), while an
``IndexConfig`` naming an ANN backend serves very large pools.
"""

from __future__ import annotations

import numpy as np

from ..config import IndexConfig
from ..exceptions import ALMError
from ..index import make_index
from ..index.distances import pairwise_sq_distances, squared_norms

__all__ = ["KMeansResult", "kmeans"]


class KMeansResult:
    """Assignments and centroids produced by :func:`kmeans`."""

    def __init__(self, assignments: np.ndarray, centroids: np.ndarray, inertia: float) -> None:
        self.assignments = assignments
        self.centroids = centroids
        self.inertia = float(inertia)

    @property
    def num_clusters(self) -> int:
        return int(self.centroids.shape[0])

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the points assigned to ``cluster``."""
        return np.flatnonzero(self.assignments == cluster)


def _init_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with an existing centroid.
            centroids[i:] = points[int(rng.integers(0, n))]
            break
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = points[choice]
        distance_sq = np.sum((points - centroids[i]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centroids


def _assign(
    points: np.ndarray,
    points_sq: np.ndarray,
    centroids: np.ndarray,
    index: IndexConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """(assignments, squared distance to the assigned centroid).

    The default exact backend runs the index subsystem's distance kernel
    directly with the hoisted point norms — exactly what ``ExactIndex`` would
    compute, minus a per-iteration index build and norm recomputation.  ANN
    backends build an index over the centroids; they may return the -1/inf
    no-neighbour sentinel (e.g. an IVF query whose probed cells are all empty),
    and every point must have an assignment, so misses fall back to the exact
    kernel.
    """
    if index.backend == "exact":
        sq = pairwise_sq_distances(points, centroids, points_sq=points_sq)
        assignments = sq.argmin(axis=1)
        return assignments, sq[np.arange(points.shape[0]), assignments]
    ann = make_index(index)
    ann.build(centroids)
    sq, nearest = ann.search(points, 1)
    assignments = nearest[:, 0].copy()
    min_sq = sq[:, 0].copy()
    missed = assignments < 0
    if missed.any():
        exact_sq = pairwise_sq_distances(
            points[missed], centroids, points_sq=points_sq[missed]
        )
        assignments[missed] = exact_sq.argmin(axis=1)
        min_sq[missed] = exact_sq[np.arange(exact_sq.shape[0]), assignments[missed]]
    return assignments, min_sq


def kmeans(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator | None = None,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
    index: IndexConfig = IndexConfig(),
) -> KMeansResult:
    """Cluster ``points`` into ``num_clusters`` groups.

    Args:
        points: Array of shape (n, d).
        num_clusters: Desired number of clusters; clipped to n.
        rng: Random generator used for initialisation.
        max_iterations: Maximum Lloyd iterations.
        tolerance: Stop when the centroid shift falls below this value.
        index: ``repro.index`` backend used for nearest-centroid assignment
            (the exact default reproduces the brute-force path bit-for-bit).

    Raises:
        ALMError: when ``points`` is empty or not 2-D.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ALMError(f"kmeans needs a non-empty 2-D array, got shape {points.shape}")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = points.shape[0]
    k = max(1, min(int(num_clusters), n))

    points_sq = squared_norms(points)
    centroids = _init_centroids(points, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    for __ in range(max_iterations):
        assignments, min_sq = _assign(points, points_sq, centroids, index)
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, points)
        new_centroids = centroids.copy()
        occupied = counts > 0
        new_centroids[occupied] = sums[occupied] / counts[occupied, None]
        if not occupied.all():
            # Re-seed empty clusters at the point farthest from its centroid.
            farthest = int(min_sq.argmax())
            new_centroids[~occupied] = points[farthest]
        shift = float(np.linalg.norm(new_centroids - centroids))
        centroids = new_centroids
        if shift < tolerance:
            break

    assignments, final_sq = _assign(points, points_sq, centroids, index)
    inertia = float(final_sq.sum())
    return KMeansResult(assignments=assignments, centroids=centroids, inertia=inertia)
