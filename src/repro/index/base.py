"""The :class:`VectorIndex` abstract API and shared top-k helpers.

A vector index answers batched k-nearest-neighbour queries over a set of
``(n, d)`` float vectors.  The contract shared by every backend:

* ``build(vectors)`` replaces the index contents;
* ``add(vectors)`` appends more vectors (ids continue from the current size);
* ``search(queries, k)`` returns ``(distances, indices)``, both of shape
  ``(num_queries, k)``.  Distances are **squared** L2.  Rows are sorted by
  ascending distance with ties broken toward the smaller index; when fewer
  than ``k`` neighbours are reachable (small index, empty ANN buckets) the row
  is padded with ``distance=inf`` and ``index=-1``;
* every backend is pure numpy and deterministic under its seeded RNG: the same
  build/add/search sequence always produces the same results.

:func:`repro.index.make_index` builds the backend a configuration names.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import VectorIndexError

__all__ = ["VectorIndex"]


def as_matrix(vectors: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate and convert ``vectors`` to a contiguous float64 ``(n, d)`` matrix."""
    matrix = np.ascontiguousarray(vectors, dtype=np.float64)
    if matrix.ndim != 2:
        raise VectorIndexError(f"expected a 2-D vector matrix, got shape {matrix.shape}")
    if dim is not None and matrix.shape[1] != dim:
        raise VectorIndexError(
            f"index stores {dim}-d vectors, got {matrix.shape[1]}-d"
        )
    return matrix


def as_queries(queries: np.ndarray, dim: int) -> np.ndarray:
    """Convert ``queries`` (one ``(d,)`` vector or an ``(q, d)`` batch) to 2-D."""
    matrix = np.ascontiguousarray(queries, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2 or matrix.shape[1] != dim:
        raise VectorIndexError(
            f"queries must be ({dim},) or (q, {dim}), got shape {np.shape(queries)}"
        )
    return matrix


def order_hits(distances: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row by (distance, index); both arrays are returned reordered."""
    order = np.argsort(indices, axis=1, kind="stable")
    indices = np.take_along_axis(indices, order, axis=1)
    distances = np.take_along_axis(distances, order, axis=1)
    order = np.argsort(distances, axis=1, kind="stable")
    return (
        np.take_along_axis(distances, order, axis=1),
        np.take_along_axis(indices, order, axis=1),
    )


def topk_hits(distances: np.ndarray, indices: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a candidate block, sorted by (distance, index).

    ``distances`` and ``indices`` have shape ``(q, m)``; the result has shape
    ``(q, min(m, k))``.  ``argpartition`` prunes wide blocks before the sort so
    the cost is ``O(m + k log k)`` per row.
    """
    if distances.shape[1] > k:
        keep = np.argpartition(distances, k - 1, axis=1)[:, :k]
        distances = np.take_along_axis(distances, keep, axis=1)
        indices = np.take_along_axis(indices, keep, axis=1)
    return order_hits(distances, indices)


def topk_unsorted(
    distances: np.ndarray, indices: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-k of a candidate block in arbitrary order (argpartition only).

    Cheaper than :func:`topk_hits` for intermediate accumulation; callers must
    finish with :func:`order_hits` (or :func:`topk_hits`) before returning.
    """
    if distances.shape[1] > k:
        keep = np.argpartition(distances, k - 1, axis=1)[:, :k]
        distances = np.take_along_axis(distances, keep, axis=1)
        indices = np.take_along_axis(indices, keep, axis=1)
    return distances, indices


def pad_hits(distances: np.ndarray, indices: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
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
    """Abstract batched k-NN index over float vectors."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._dim = -1

    # -------------------------------------------------------------- contract
    def __len__(self) -> int:
        """Number of indexed vectors."""
        raise NotImplementedError

    @property
    def dim(self) -> int:
        """Vector dimensionality, or -1 before the first build/add."""
        return self._dim

    def build(self, vectors: np.ndarray) -> None:
        """Replace the index contents with ``vectors``."""
        raise NotImplementedError

    def add(self, vectors: np.ndarray) -> None:
        """Append ``vectors``; their ids continue from the current size."""
        raise NotImplementedError

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(squared_distances, indices)`` of the ``k`` nearest vectors."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers
    def _check_k(self, k: int) -> int:
        if k < 1:
            raise VectorIndexError(f"k must be >= 1, got {k}")
        return int(k)

    def _set_dim(self, dim: int) -> None:
        if self._dim == -1:
            self._dim = int(dim)
        elif dim != self._dim:
            raise VectorIndexError(f"index stores {self._dim}-d vectors, got {dim}-d")
