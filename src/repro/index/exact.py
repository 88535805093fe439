"""Exact (brute-force) index — the correctness oracle.

Distances are computed with the shared norm-expansion kernel, chunked over
queries so the transient ``(chunk, n)`` distance block stays bounded.  ``k=1``
searches take the ``np.argmin`` fast path, which both avoids the partition and
guarantees the first-minimum (smallest-index) tie-break that k-means relies on
for bit-identical assignments.
"""

from __future__ import annotations

import numpy as np

from .base import (
    VectorIndex,
    as_matrix,
    as_queries,
    pad_hits,
    register_backend,
    topk_hits,
)
from .distances import pairwise_sq_distances, squared_norms

__all__ = ["ExactIndex"]

#: Upper bound on the number of entries of one (chunk, n) distance block.
_BLOCK_ENTRIES = 4_000_000


@register_backend
class ExactIndex(VectorIndex):
    """Brute-force scan over all stored vectors; exact by construction."""

    backend = "exact"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._vectors = np.empty((0, 0))
        self._sq = np.empty(0)

    def __len__(self) -> int:
        return self._vectors.shape[0]

    def build(self, vectors: np.ndarray) -> None:
        """Adopt ``vectors`` as the searchable pool, caching row norms."""
        matrix = as_matrix(vectors)
        self._dim = -1
        self._set_dim(matrix.shape[1])
        self._vectors = matrix.copy()
        self._sq = squared_norms(self._vectors)

    def add(self, vectors: np.ndarray) -> None:
        """Append ``vectors`` to the pool (row ids continue the build order)."""
        matrix = as_matrix(vectors, dim=None if self._dim < 0 else self._dim)
        if len(self) == 0:
            self.build(matrix)
            return
        self._vectors = np.vstack([self._vectors, matrix])
        self._sq = np.concatenate([self._sq, squared_norms(matrix)])

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` by a chunked norm-expansion scan of the whole pool."""
        k = self._check_k(k)
        queries = as_queries(queries, max(self._dim, 0) or queries.shape[-1])
        num_queries = queries.shape[0]
        n = len(self)
        if n == 0:
            return pad_hits(np.empty((num_queries, 0)), np.empty((num_queries, 0), dtype=np.int64), k)

        width = min(k, n)
        out_d = np.empty((num_queries, width))
        out_i = np.empty((num_queries, width), dtype=np.int64)
        chunk = max(1, _BLOCK_ENTRIES // n)
        for lo in range(0, num_queries, chunk):
            hi = min(lo + chunk, num_queries)
            block = pairwise_sq_distances(queries[lo:hi], self._vectors, others_sq=self._sq)
            if k == 1:
                # argmin keeps the first (smallest-index) minimum, matching the
                # tie-break contract without a partition pass.
                nearest = np.argmin(block, axis=1)
                out_i[lo:hi, 0] = nearest
                out_d[lo:hi, 0] = block[np.arange(hi - lo), nearest]
            else:
                ids = np.broadcast_to(np.arange(n, dtype=np.int64), block.shape)
                out_d[lo:hi], out_i[lo:hi] = topk_hits(block, ids, k)
        return pad_hits(out_d, out_i, k)
