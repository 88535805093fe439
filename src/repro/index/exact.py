"""Exact k-nearest-neighbour search: the system's one nearest-neighbour path.

The paper answers similarity search and coreset distances with a plain scan
over one feature vector per (extractor, clip), and so does this module.
:class:`ExactScan` searches rows its caller owns (a feature shard's matrix,
the labeled set of a coreset pass) together with their squared norms, which
the caller may cache; nothing is copied or trained.

The result contract of :meth:`ExactScan.search`:

* ``(distances, indices)``, both of shape ``(num_queries, k)``; distances are
  **squared** L2;
* each row is sorted by ascending distance, ties broken toward the smaller
  index.  ``k=1`` takes the ``np.argmin`` path, whose first minimum is that
  same tie-break without a partition pass (k-means relies on it for
  bit-identical assignments);
* when ``k`` exceeds the number of rows, each row is padded with
  ``distance=inf`` and ``index=-1``.

Distances come from the shared norm-expansion kernel
(:mod:`repro.index.distances`), chunked over queries so the transient
``(chunk, n)`` distance block stays bounded.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import VectorIndexError
from .distances import pairwise_sq_distances, squared_norms

__all__ = ["ExactScan", "VectorIndex"]

#: Upper bound on the number of entries of one (chunk, n) distance block.
_BLOCK_ENTRIES = 4_000_000


def _topk_hits(distances: np.ndarray, indices: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a candidate block, sorted by (distance, index).

    ``distances`` and ``indices`` have shape ``(q, m)``; the result has shape
    ``(q, min(m, k))``.  ``argpartition`` prunes wide blocks before the sort so
    the cost is ``O(m + k log k)`` per row.
    """
    if distances.shape[1] > k:
        keep = np.argpartition(distances, k - 1, axis=1)[:, :k]
        distances = np.take_along_axis(distances, keep, axis=1)
        indices = np.take_along_axis(indices, keep, axis=1)
    # Sort by index, then stably by distance: (distance, index) order.
    order = np.argsort(indices, axis=1, kind="stable")
    indices = np.take_along_axis(indices, order, axis=1)
    distances = np.take_along_axis(distances, order, axis=1)
    order = np.argsort(distances, axis=1, kind="stable")
    return (
        np.take_along_axis(distances, order, axis=1),
        np.take_along_axis(indices, order, axis=1),
    )


def _pad_hits(distances: np.ndarray, indices: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad rows narrower than ``k`` with ``inf`` distances and ``-1`` ids."""
    q, width = distances.shape
    if width >= k:
        return distances, indices
    padded_d = np.full((q, k), np.inf)
    padded_i = np.full((q, k), -1, dtype=np.int64)
    padded_d[:, :width] = distances
    padded_i[:, :width] = indices
    return padded_d, padded_i


class VectorIndex:
    """Base of the nearest-neighbour classes; :class:`ExactScan` is the only one.

    The benchmark's tracer (``perfbench/tracer.py``) times ``search`` on the
    subclasses of this name, which is why it stays.
    """


class ExactScan(VectorIndex):
    """Exact top-k over ``(n, d)`` rows and their squared norms, both borrowed.

    ``sq_norms`` defaults to :func:`~repro.index.distances.squared_norms` of
    ``vectors``; a caller that searches the same rows repeatedly passes the
    norms it keeps.
    """

    def __init__(self, vectors: np.ndarray, sq_norms: np.ndarray | None = None) -> None:
        matrix = np.ascontiguousarray(vectors, dtype=np.float64)
        if matrix.ndim != 2:
            raise VectorIndexError(f"expected a 2-D vector matrix, got shape {matrix.shape}")
        self.vectors = matrix
        self.sq_norms = squared_norms(matrix) if sq_norms is None else sq_norms

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` of one ``(d,)`` query or a ``(q, d)`` batch by a chunked scan."""
        if k < 1:
            raise VectorIndexError(f"k must be >= 1, got {k}")
        k = int(k)
        n, dim = self.vectors.shape
        batch = np.ascontiguousarray(queries, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2 or batch.shape[1] != dim:
            raise VectorIndexError(
                f"queries must be ({dim},) or (q, {dim}), got shape {np.shape(queries)}"
            )
        num_queries = batch.shape[0]
        if n == 0:
            return _pad_hits(np.empty((num_queries, 0)), np.empty((num_queries, 0), dtype=np.int64), k)

        width = min(k, n)
        out_d = np.empty((num_queries, width))
        out_i = np.empty((num_queries, width), dtype=np.int64)
        chunk = max(1, _BLOCK_ENTRIES // n)
        for lo in range(0, num_queries, chunk):
            hi = min(lo + chunk, num_queries)
            block = pairwise_sq_distances(batch[lo:hi], self.vectors, others_sq=self.sq_norms)
            if k == 1:
                # argmin keeps the first (smallest-index) minimum, matching the
                # tie-break contract without a partition pass.
                nearest = np.argmin(block, axis=1)
                out_i[lo:hi, 0] = nearest
                out_d[lo:hi, 0] = block[np.arange(hi - lo), nearest]
            else:
                ids = np.broadcast_to(np.arange(n, dtype=np.int64), block.shape)
                out_d[lo:hi], out_i[lo:hi] = _topk_hits(block, ids, k)
        return _pad_hits(out_d, out_i, k)
