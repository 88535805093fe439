"""IVF-Flat index: k-means coarse quantizer + inverted lists.

The classic sub-linear ANN layout: a coarse k-means quantizer partitions the
vectors into ``nlist`` cells; each cell's vectors are stored as one contiguous
slab (cache-friendly, no per-query gathers of scattered rows).  A search
probes the ``nprobe`` cells whose centroids are closest to the query and scans
only those slabs, so the scanned fraction is roughly ``nprobe / nlist``.

Search is **list-major** rather than query-major: queries are grouped by the
cell they probe, and each probed cell is scanned once with a single matmul for
every query probing it, merging into per-query running top-k buffers.  This
keeps the Python-level loop at ``O(distinct probed cells)`` instead of
``O(queries x nprobe)``.

Incremental ``add`` assigns new vectors to their nearest centroid and keeps
them in a side buffer that every search scans exactly (so fresh vectors are
always visible); once the buffer grows beyond ``retrain_factor`` times the
trained size the whole index is re-trained from scratch.  The quantizer is
trained on a seeded subsample, so builds are deterministic and stay cheap at
large ``n``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import VectorIndexError
from .base import (
    VectorIndex,
    as_matrix,
    as_queries,
    order_hits,
    pad_hits,
    register_backend,
    topk_unsorted,
)
from .distances import pairwise_sq_distances, squared_norms

__all__ = ["IVFFlatIndex"]

#: Training subsample: at most this many points per coarse centroid.
_TRAIN_POINTS_PER_LIST = 64
_TRAIN_MIN_POINTS = 2_000


def _kmeans_lite(
    points: np.ndarray, k: int, rng: np.random.Generator, iterations: int = 10
) -> np.ndarray:
    """Small Lloyd's k-means for the coarse quantizer (random distinct init).

    Deliberately lighter than :func:`repro.alm.clustering.kmeans` (no k-means++
    pass, few iterations): quantizer quality only shifts the recall/nprobe
    trade-off, it never affects correctness, and the index package must not
    depend on the ALM.
    """
    n = points.shape[0]
    k = max(1, min(k, n))
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    points_sq = squared_norms(points)
    for __ in range(iterations):
        sq = pairwise_sq_distances(points, centroids, points_sq=points_sq)
        assign = sq.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, points)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        if not occupied.all():
            # Re-seed empty cells at the points farthest from their centroid.
            farthest = np.argsort(sq[np.arange(n), assign])[::-1]
            centroids[~occupied] = points[farthest[: int((~occupied).sum())]]
    return centroids


@register_backend
class IVFFlatIndex(VectorIndex):
    """Inverted-file index with flat (uncompressed) storage."""

    backend = "ivf-flat"

    def __init__(
        self,
        nlist: int | None = None,
        nprobe: int = 8,
        retrain_factor: float = 0.5,
        seed: int = 0,
    ) -> None:
        """Configure the index.

        Args:
            nlist: Number of coarse cells; defaults to ``round(sqrt(n))`` at
                build time.
            nprobe: Number of cells scanned per query.
            retrain_factor: Re-train the quantizer once incremental adds exceed
                this fraction of the trained size.
            seed: RNG seed for quantizer training (sampling + init).
        """
        super().__init__(seed=seed)
        if nlist is not None and nlist < 1:
            raise VectorIndexError(f"nlist must be >= 1, got {nlist}")
        if nprobe < 1:
            raise VectorIndexError(f"nprobe must be >= 1, got {nprobe}")
        if retrain_factor <= 0:
            raise VectorIndexError(f"retrain_factor must be > 0, got {retrain_factor}")
        self.nlist = nlist
        self.nprobe = int(nprobe)
        self.retrain_factor = float(retrain_factor)
        self._reset()

    def _reset(self) -> None:
        self._centroids = np.empty((0, 0))
        self._slabs = np.empty((0, 0))      # vectors reordered by cell
        self._slab_sq = np.empty(0)
        self._ids = np.empty(0, dtype=np.int64)  # slab row -> original id
        self._ptr = np.zeros(1, dtype=np.int64)  # cell -> slab [ptr[c], ptr[c+1])
        self._trained_n = 0
        self._extra = np.empty((0, 0))      # incremental adds since training
        self._extra_sq = np.empty(0)
        self._extra_ids = np.empty(0, dtype=np.int64)
        self._pending: list[np.ndarray] = []  # adds received before any build

    def __len__(self) -> int:
        pending = sum(block.shape[0] for block in self._pending)
        return self._trained_n + self._extra.shape[0] + pending

    @property
    def effective_nlist(self) -> int:
        """Number of coarse cells actually trained (0 before training)."""
        return self._centroids.shape[0]

    # ----------------------------------------------------------------- build
    def build(self, vectors: np.ndarray) -> None:
        """Train the coarse quantizer on ``vectors`` and lay out the list slabs."""
        matrix = as_matrix(vectors)
        self._dim = -1
        self._set_dim(matrix.shape[1])
        self._reset()
        self._train(matrix)

    def _train(self, matrix: np.ndarray) -> None:
        n = matrix.shape[0]
        if n == 0:
            return
        rng = np.random.default_rng(self.seed)
        nlist = self.nlist if self.nlist is not None else max(1, int(round(np.sqrt(n))))
        nlist = min(nlist, n)
        sample_size = min(n, max(_TRAIN_MIN_POINTS, _TRAIN_POINTS_PER_LIST * nlist))
        train = matrix if sample_size >= n else matrix[rng.choice(n, size=sample_size, replace=False)]
        self._centroids = _kmeans_lite(train, nlist, rng)
        nlist = self._centroids.shape[0]

        assign = self._assign(matrix)
        order = np.argsort(assign, kind="stable")
        self._slabs = np.ascontiguousarray(matrix[order])
        self._slab_sq = squared_norms(self._slabs)
        self._ids = order.astype(np.int64)
        counts = np.bincount(assign, minlength=nlist)
        self._ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._trained_n = n

    def _assign(self, matrix: np.ndarray) -> np.ndarray:
        """Nearest coarse centroid of each row (chunked argmin)."""
        assign = np.empty(matrix.shape[0], dtype=np.int64)
        chunk = max(1, 4_000_000 // max(1, self._centroids.shape[0]))
        for lo in range(0, matrix.shape[0], chunk):
            hi = min(lo + chunk, matrix.shape[0])
            sq = pairwise_sq_distances(matrix[lo:hi], self._centroids)
            assign[lo:hi] = sq.argmin(axis=1)
        return assign

    def add(self, vectors: np.ndarray) -> None:
        """Buffer ``vectors`` beside the slabs; re-trains past ``retrain_factor``."""
        matrix = as_matrix(vectors, dim=None if self._dim < 0 else self._dim)
        if matrix.shape[0] == 0:
            return
        self._set_dim(matrix.shape[1])
        if self._trained_n == 0:
            self._pending.append(matrix.copy())
            return
        if self._extra.size:
            self._extra = np.vstack([self._extra, matrix])
            self._extra_sq = np.concatenate([self._extra_sq, squared_norms(matrix)])
        else:
            self._extra = matrix.copy()
            self._extra_sq = squared_norms(self._extra)
        start = self._trained_n + self._extra_ids.shape[0]
        self._extra_ids = np.concatenate(
            [self._extra_ids, np.arange(start, start + matrix.shape[0], dtype=np.int64)]
        )
        if self._extra.shape[0] > self.retrain_factor * self._trained_n:
            self._retrain()

    def _retrain(self) -> None:
        """Fold the side buffer into a freshly trained index (ids preserved)."""
        merged = np.vstack([self._slabs[np.argsort(self._ids)], self._extra])
        self._reset()
        self._train(merged)

    def _ensure_trained(self) -> None:
        if self._pending:
            blocks, self._pending = self._pending, []
            stacked = np.vstack(blocks)
            if self._trained_n == 0:
                self._train(stacked)
            else:  # pragma: no cover - pending only accumulates while untrained
                self.add(stacked)

    # ---------------------------------------------------------------- search
    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` scanning the ``nprobe`` nearest cells, list-major."""
        k = self._check_k(k)
        self._ensure_trained()
        queries = as_queries(queries, max(self._dim, 0) or queries.shape[-1])
        num_queries = queries.shape[0]
        if len(self) == 0:
            return pad_hits(np.empty((num_queries, 0)), np.empty((num_queries, 0), dtype=np.int64), k)

        queries_sq = squared_norms(queries)
        nlist = self.effective_nlist
        nprobe = min(self.nprobe, nlist)
        centroid_sq = pairwise_sq_distances(queries, self._centroids, points_sq=queries_sq)
        if nprobe < nlist:
            probes = np.argpartition(centroid_sq, nprobe - 1, axis=1)[:, :nprobe]
        else:
            probes = np.broadcast_to(np.arange(nlist), (num_queries, nlist))

        # Every query probes exactly nprobe cells and keeps at most k
        # candidates per cell, so the per-query candidate set fits one
        # preallocated (q, nprobe * k) buffer.  Each probed cell is scanned
        # once for all of its queries (list-major) and scatters its block
        # top-k into the buffer; a single top-k pass at the end selects the
        # answer.  This keeps Python-level work at O(distinct probed cells).
        cand_d = np.full((num_queries, nprobe * k), np.inf)
        cand_i = np.full((num_queries, nprobe * k), -1, dtype=np.int64)
        cursor = np.zeros(num_queries, dtype=np.int64)
        column = np.arange(k)

        flat_cells = probes.ravel()
        flat_queries = np.repeat(np.arange(num_queries), probes.shape[1])
        order = np.argsort(flat_cells, kind="stable")
        flat_cells = flat_cells[order]
        flat_queries = flat_queries[order]
        boundaries = np.flatnonzero(np.diff(flat_cells)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [flat_cells.shape[0]]])
        for s, e in zip(starts, ends):
            cell = int(flat_cells[s])
            lo, hi = int(self._ptr[cell]), int(self._ptr[cell + 1])
            if lo == hi:
                continue
            rows = flat_queries[s:e]
            block = pairwise_sq_distances(
                queries[rows],
                self._slabs[lo:hi],
                points_sq=queries_sq[rows],
                others_sq=self._slab_sq[lo:hi],
            )
            ids = np.broadcast_to(self._ids[lo:hi], block.shape)
            block_d, block_i = topk_unsorted(block, ids, k)
            width = block_d.shape[1]
            cols = (cursor[rows] * k)[:, None] + column[:width]
            cand_d[rows[:, None], cols] = block_d
            cand_i[rows[:, None], cols] = block_i
            cursor[rows] += 1

        top_d, top_i = topk_unsorted(cand_d, cand_i, k)

        if self._extra.shape[0]:
            # The side buffer is scanned exactly for every query, so vectors
            # added since the last (re)training are always visible.
            block = pairwise_sq_distances(
                queries, self._extra, points_sq=queries_sq, others_sq=self._extra_sq
            )
            ids = np.broadcast_to(self._extra_ids, block.shape)
            block_d, block_i = topk_unsorted(block, ids, k)
            top_d = np.concatenate([top_d, block_d], axis=1)
            top_i = np.concatenate([top_i, block_i], axis=1)
            top_d, top_i = topk_unsorted(top_d, top_i, k)

        top_d, top_i = order_hits(top_d, top_i)
        return pad_hits(top_d, top_i, k)
