"""The shared squared-Euclidean distance kernel.

Every nearest-neighbour computation in the system (k-means assignment,
coreset initialisation and the exact scan in :mod:`repro.index.exact`) goes
through the same norm expansion, so that (a) no caller materialises an
``(n, m, d)`` difference tensor and (b) results are bit-identical wherever
they are computed.

The expansion ``|x - c|^2 = |x|^2 + |c|^2 - 2 x.c`` needs only an ``(n, m)``
matmul, so it stays cache- and memory-friendly for large pools.  The operation
order inside :func:`pairwise_sq_distances` is deliberately fixed (row norms
plus column norms, then subtract the doubled matmul, then clip at zero):
changing it changes last-ulp rounding, which would break the bit-identity
guarantees the exact scan makes to k-means and coreset.
"""

from __future__ import annotations

import numpy as np

__all__ = ["squared_norms", "pairwise_sq_distances"]


def squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Row-wise squared L2 norms of an ``(n, d)`` matrix, shape ``(n,)``."""
    return np.einsum("ij,ij->i", vectors, vectors)


def pairwise_sq_distances(
    points: np.ndarray,
    others: np.ndarray,
    points_sq: np.ndarray | None = None,
    others_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances of shape ``(n, m)`` via the norm expansion.

    Args:
        points: Array of shape ``(n, d)``.
        others: Array of shape ``(m, d)``.
        points_sq: Optional precomputed :func:`squared_norms` of ``points``.
        others_sq: Optional precomputed :func:`squared_norms` of ``others``.

    Negative values produced by floating-point cancellation are clipped to 0.
    """
    if points_sq is None:
        points_sq = squared_norms(points)
    if others_sq is None:
        others_sq = squared_norms(others)
    sq = points_sq[:, None] + others_sq[None, :]
    sq -= 2.0 * (points @ others.T)
    np.maximum(sq, 0.0, out=sq)
    return sq
