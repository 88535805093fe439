"""Columnar feature-vector store.

The paper stores extracted feature vectors in columnar Parquet files keyed by
``(fid, vid, start, end)`` and serves batched clip->vector lookups to every
downstream task (selection, training, inference, evaluation).  This store
mirrors that layout in memory: each extractor shard keeps contiguous numpy
columns (``vids``, ``starts``, ``ends``, ``mids``) plus an ``(n, d)`` vector
matrix grown by amortized doubling, so batched reads are single vectorized
gathers instead of per-clip Python loops.

Lookup paths:

* exact clip lookups go through a hash index over ``(vid, start, end)``;
* nearest-clip lookups binary-search a lazily built per-video sorted-midpoint
  index (``np.searchsorted``), with ties broken toward the earlier midpoint
  and, among identical midpoints, the first-inserted row;
* ``matrix``/``get_many``/``has_many`` resolve whole clip batches at once and
  gather rows from the columnar matrix in one fancy-indexing operation;
* similarity search over the vector *contents* (``search``) goes through a
  per-shard ``repro.index`` vector index built from the caller's
  ``IndexConfig``; like the sorted-midpoint index it is built lazily and kept
  in sync with writes — appended rows are folded in incrementally on the
  next search, and a different config or a restore drops the index.

Snapshots (``repro.core.checkpoint``) stage each shard's columns straight
into the snapshot bundle, and :meth:`FeatureStore.restore_columns` adopts
them without row-by-row re-insertion.
"""

from __future__ import annotations

import logging
from typing import Iterable, Sequence

import numpy as np

from .. import telemetry
from ..config import IndexConfig
from ..exceptions import MissingFeatureError, StorageError
from ..index import VectorIndex, make_index
from ..types import ClipSpec, FeatureVector
from .durability.codec import encode_array

__all__ = ["FeatureStore"]

logger = logging.getLogger(__name__)

_INITIAL_CAPACITY = 16


def _batched_bisect_left(values: np.ndarray, targets: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Left-insertion point of each target within its own slice of ``values``.

    A vectorized binary search across all queries at once: query ``i`` is
    bisected into ``values[lo[i]:hi[i]]`` (each slice must be sorted).
    """
    left = lo.copy()
    right = hi.copy()
    last = len(values) - 1
    while True:
        active = left < right
        if not active.any():
            break
        middle = np.minimum((left + right) >> 1, last)
        go_right = active & (values[middle] < targets)
        left[go_right] = middle[go_right] + 1
        go_left = active & ~go_right
        right[go_left] = middle[go_left]
    return left


def _exact_rows(shard: "_ExtractorShard", clips: Sequence[ClipSpec]) -> np.ndarray:
    """Hash-index row of each exact clip, -1 where the clip is not stored."""
    index = shard._pos
    return np.array(
        [index.get((c.vid, c.start, c.end), -1) for c in clips], dtype=np.int64
    )


class _ExtractorShard:
    """All feature vectors produced by one extractor, stored column-wise."""

    def __init__(self, fid: str, dim: int | None = None) -> None:
        self.fid = fid
        self._n = 0
        #: write counter: bumped whenever the shard's contents change (single
        #: adds, batched adds, adopted columns).  Lets derived caches — the
        #: Model Manager's design matrices, the ALM's candidate-pool context —
        #: detect staleness without comparing contents.
        self.epoch = 0
        self._dim = -1 if dim is None else int(dim)
        self._capacity = 0
        self._vids = np.empty(0, dtype=np.int64)
        self._starts = np.empty(0, dtype=np.float64)
        self._ends = np.empty(0, dtype=np.float64)
        self._mids = np.empty(0, dtype=np.float64)
        self._matrix = np.empty((0, max(self._dim, 0)), dtype=np.float64)
        self._pos: dict[tuple[int, float, float], int] = {}
        self._vid_rows: dict[int, list[int]] = {}
        #: lazily built (vids, midpoints, rows) arrays sorted by (vid, mid, row),
        #: shared by every nearest lookup; invalidated by writes
        self._gsort: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: lazily built vector index over the matrix rows and the (config,
        #: seed) it was built from; appended rows are folded in incrementally
        #: on the next search, a different config or a restore drops it
        self._vindex: VectorIndex | None = None
        self._vindex_built_from: tuple[IndexConfig, int] | None = None
        self._vindex_rows = 0

    def __len__(self) -> int:
        return self._n

    # -------------------------------------------------------- columnar views
    @property
    def dim(self) -> int:
        """Vector dimensionality, or -1 while the shard has never seen one."""
        return self._dim

    @property
    def vids(self) -> np.ndarray:
        return self._vids[: self._n]

    @property
    def starts(self) -> np.ndarray:
        return self._starts[: self._n]

    @property
    def ends(self) -> np.ndarray:
        return self._ends[: self._n]

    @property
    def mids(self) -> np.ndarray:
        return self._mids[: self._n]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix[: self._n]

    def clip_at(self, row: int) -> ClipSpec:
        return ClipSpec(int(self._vids[row]), float(self._starts[row]), float(self._ends[row]))

    def clips(self, rows: Iterable[int] | None = None) -> list[ClipSpec]:
        if rows is None:
            rows = range(self._n)
        return [self.clip_at(row) for row in rows]

    # ---------------------------------------------------------------- writes
    def _grow(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = max(self._capacity * 2, needed, _INITIAL_CAPACITY)
        for name in ("_vids", "_starts", "_ends", "_mids"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)
        grown_matrix = np.empty((capacity, max(self._dim, 0)), dtype=np.float64)
        grown_matrix[: self._n] = self._matrix[: self._n]
        self._matrix = grown_matrix
        self._capacity = capacity

    def _set_dim(self, dim: int) -> None:
        if self._dim == -1:
            self._dim = int(dim)
            self._matrix = np.empty((self._capacity, self._dim), dtype=np.float64)
        elif dim != self._dim:
            raise ValueError(
                f"extractor {self.fid!r} stores {self._dim}-d vectors, got {dim}-d"
            )

    def add(self, clip: ClipSpec, vector: np.ndarray) -> bool:
        """Store one vector; returns False when the exact clip already exists."""
        key = (clip.vid, clip.start, clip.end)
        if key in self._pos:
            return False
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ValueError(f"feature vector must be 1-D, got shape {vector.shape}")
        self._set_dim(vector.shape[0])
        self._grow(self._n + 1)
        row = self._n
        self._vids[row] = clip.vid
        self._starts[row] = clip.start
        self._ends[row] = clip.end
        self._mids[row] = clip.midpoint
        self._matrix[row] = vector
        self._pos[key] = row
        self._vid_rows.setdefault(clip.vid, []).append(row)
        self._gsort = None
        self._n = row + 1
        self.epoch += 1
        return True

    def add_batch(
        self,
        vids: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        vectors: np.ndarray,
    ) -> int:
        """Bulk-append rows, skipping exact duplicates; returns how many were new."""
        vids = np.asarray(vids, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"add_batch needs a 2-D vector matrix, got shape {vectors.shape}")
        if not (len(vids) == len(starts) == len(ends) == vectors.shape[0]):
            raise ValueError("add_batch columns must have equal length")
        if len(vids) == 0:
            return 0
        self._set_dim(vectors.shape[1])

        fresh: list[int] = []
        row = self._n
        vid_list = vids.tolist()
        start_list = starts.tolist()
        end_list = ends.tolist()
        for i in range(len(vid_list)):
            key = (vid_list[i], start_list[i], end_list[i])
            if key in self._pos:
                continue
            self._pos[key] = row
            self._vid_rows.setdefault(key[0], []).append(row)
            fresh.append(i)
            row += 1
        if not fresh:
            return 0
        self._gsort = None
        take = np.asarray(fresh, dtype=np.int64)
        count = len(fresh)
        self._grow(self._n + count)
        span = slice(self._n, self._n + count)
        self._vids[span] = vids[take]
        self._starts[span] = starts[take]
        self._ends[span] = ends[take]
        self._mids[span] = (starts[take] + ends[take]) / 2.0
        self._matrix[span] = vectors[take]
        self._n += count
        self.epoch += 1
        return count

    def adopt_columns(
        self,
        vids: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        vectors: np.ndarray,
    ) -> None:
        """Take ownership of pre-built columns (snapshot restore)."""
        vids = np.ascontiguousarray(vids, dtype=np.int64)
        starts = np.ascontiguousarray(starts, dtype=np.float64)
        ends = np.ascontiguousarray(ends, dtype=np.float64)
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        n = len(vids)
        self._vids, self._starts, self._ends = vids, starts, ends
        self._mids = (starts + ends) / 2.0
        self._matrix = vectors
        self._n = self._capacity = n
        if vectors.shape[1] or n:
            self._dim = int(vectors.shape[1])
        vid_list = vids.tolist()
        self._pos = {
            (vid_list[i], start, end): i
            for i, (start, end) in enumerate(zip(starts.tolist(), ends.tolist()))
        }
        self._vid_rows = {}
        for i, vid in enumerate(vid_list):
            self._vid_rows.setdefault(vid, []).append(i)
        self._gsort = None
        self._vindex = None
        self.epoch += 1

    # ----------------------------------------------------------------- reads
    def has(self, clip: ClipSpec) -> bool:
        return (clip.vid, clip.start, clip.end) in self._pos

    def row_of(self, clip: ClipSpec) -> int:
        """Row index of the exact clip, or -1 when it is not stored."""
        return self._pos.get((clip.vid, clip.start, clip.end), -1)

    def get(self, clip: ClipSpec) -> np.ndarray:
        row = self.row_of(clip)
        if row < 0:
            raise MissingFeatureError(
                f"no {self.fid} feature for vid={clip.vid} [{clip.start}, {clip.end}]"
            )
        return self._matrix[row].copy()

    def rows_for_vid(self, vid: int) -> list[int]:
        return self._vid_rows.get(vid, [])

    def _global_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vids, midpoints, rows) sorted by (vid, midpoint, insertion row).

        One shared sorted index serves nearest lookups for every video: a
        video's rows form a contiguous segment (found with two vectorized
        ``searchsorted`` calls on the vid column), and midpoints are sorted
        within each segment.  Built lazily, invalidated by writes.
        """
        if self._gsort is None:
            rows = np.arange(self._n, dtype=np.int64)
            vids = self._vids[: self._n]
            mids = self._mids[: self._n]
            order = np.lexsort((rows, mids, vids))
            self._gsort = (
                np.ascontiguousarray(vids[order]),
                np.ascontiguousarray(mids[order]),
                order,
            )
        return self._gsort

    def nearest_rows(self, qvids: np.ndarray, qmids: np.ndarray) -> np.ndarray:
        """Row index of the stored clip nearest each (vid, target midpoint) query.

        The whole batch resolves in one pass: per-query segment bounds come
        from two ``searchsorted`` calls over the vid column, and the in-segment
        insertion points from a vectorized binary search across all queries at
        once.  Ties (a target equidistant from two stored midpoints) resolve
        to the earlier midpoint; identical midpoints resolve to the
        first-inserted row.

        Raises:
            MissingFeatureError: when any queried video has no stored clips.
        """
        qvids = np.asarray(qvids, dtype=np.int64)
        qmids = np.asarray(qmids, dtype=np.float64)
        if len(qvids) == 0:
            return np.empty(0, dtype=np.int64)
        g_vids, g_mids, g_rows = self._global_index()
        lo = np.searchsorted(g_vids, qvids, side="left")
        hi = np.searchsorted(g_vids, qvids, side="right")
        empty = lo == hi
        if empty.any():
            vid = int(qvids[np.flatnonzero(empty)[0]])
            raise MissingFeatureError(
                f"no {self.fid} features extracted for video {vid}"
            )
        insertion = _batched_bisect_left(g_mids, qmids, lo, hi)
        right = np.minimum(insertion, hi - 1)
        left = np.maximum(insertion - 1, lo)
        pick_left = np.abs(qmids - g_mids[left]) <= np.abs(g_mids[right] - qmids)
        pick = np.where(pick_left, left, right)
        # Canonicalize runs of identical midpoints to their first entry, which
        # (rows being the lexsort tie-breaker) is the first-inserted row.
        pick = _batched_bisect_left(g_mids, g_mids[pick], lo, pick)
        return g_rows[pick]

    # --------------------------------------------------------- vector search
    def search(
        self, queries: np.ndarray, k: int, index: IndexConfig, seed: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched k-NN over the stored vectors; returns ``(sq_distances, rows)``.

        The index is built from ``index`` and ``seed`` on first use and kept
        in sync with writes: rows appended since the last search are folded
        in with the index's incremental ``add`` (ANN backends may re-train
        themselves).  A search with a different config or seed, or one after
        :meth:`adopt_columns`, builds a fresh index.

        Raises:
            MissingFeatureError: when the shard holds no vectors.
        """
        if self._n == 0:
            raise MissingFeatureError(f"no {self.fid} features stored to search")
        if self._vindex is None or self._vindex_built_from != (index, seed):
            self._vindex = make_index(index, seed)
            self._vindex.build(self.matrix)
            self._vindex_built_from = (index, seed)
            self._vindex_rows = self._n
        elif self._vindex_rows < self._n:
            self._vindex.add(self._matrix[self._vindex_rows : self._n])
            self._vindex_rows = self._n
        return self._vindex.search(queries, k)


class FeatureStore:
    """Feature vectors grouped by extractor name (the paper's ``fid``)."""

    def __init__(self) -> None:
        self._shards: dict[str, _ExtractorShard] = {}
        #: Optional write-ahead sink (``repro.storage.durability``): fresh
        #: rows are journaled, keyed by the shard's post-write epoch.
        self.journal_sink = None

    def _journal_rows(
        self,
        fid: str,
        vids: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        vectors: np.ndarray,
    ) -> None:
        self.journal_sink(
            {
                "type": "features",
                "fid": fid,
                "epoch": self._shards[fid].epoch,
                "vids": encode_array(np.asarray(vids, dtype=np.int64)),
                "starts": encode_array(np.asarray(starts, dtype=np.float64)),
                "ends": encode_array(np.asarray(ends, dtype=np.float64)),
                "vectors": encode_array(np.asarray(vectors, dtype=np.float64)),
            }
        )

    def _get_or_create_shard(self, fid: str) -> _ExtractorShard:
        shard = self._shards.get(fid)
        if shard is None:
            shard = self._shards[fid] = _ExtractorShard(fid)
        return shard

    # ------------------------------------------------------------------ writes
    def add(self, feature: FeatureVector) -> bool:
        """Store one feature vector; returns False when it was already stored."""
        fresh = self._get_or_create_shard(feature.fid).add(feature.clip, feature.vector)
        if fresh and self.journal_sink is not None:
            clip = feature.clip
            self._journal_rows(
                feature.fid,
                np.array([clip.vid], dtype=np.int64),
                np.array([clip.start], dtype=np.float64),
                np.array([clip.end], dtype=np.float64),
                np.asarray(feature.vector, dtype=np.float64)[None, :],
            )
        return fresh

    def add_many(self, features: Iterable[FeatureVector]) -> int:
        """Store several feature vectors; returns how many were new."""
        return sum(1 for feature in features if self.add(feature))

    def add_batch(
        self,
        fid: str,
        vids: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        vectors: np.ndarray,
    ) -> int:
        """Bulk-insert aligned columns for one extractor; returns how many were new.

        ``vectors`` must be an ``(n, d)`` matrix row-aligned with the three
        clip columns.  Exact duplicates (already stored or repeated within the
        batch) are skipped, matching :meth:`add`.
        """
        fresh = self._get_or_create_shard(fid).add_batch(vids, starts, ends, vectors)
        if fresh and self.journal_sink is not None:
            self._journal_rows(fid, vids, starts, ends, vectors)
        return fresh

    # ------------------------------------------------------------------- reads
    def extractors(self) -> list[str]:
        """Extractor names with a registered shard (possibly empty after load)."""
        return list(self._shards)

    def count(self, fid: str) -> int:
        """Number of vectors stored for extractor ``fid``."""
        shard = self._shards.get(fid)
        return len(shard) if shard is not None else 0

    def epoch(self, fid: str) -> int:
        """Write counter for ``fid``'s shard (0 while no shard exists).

        The epoch increments on every content change (``add``, ``add_batch``
        with at least one fresh row, adopted columns on load) and never on
        reads, so ``epoch(fid)`` equality between two moments guarantees the
        shard's contents — and therefore every clip-to-row resolution — are
        unchanged.  Downstream caches key on it for invalidation.
        """
        shard = self._shards.get(fid)
        return shard.epoch if shard is not None else 0

    def restore_epoch(self, fid: str, epoch: int) -> None:
        """Force ``fid``'s write counter to a recovered value.

        Checkpoint recovery rebuilds shards through bulk adoption/replay,
        which ticks the epoch differently than the original write sequence;
        restoring the journaled value keeps epoch-keyed caches (design
        matrices, acquisition contexts) bit-compatible after a resume.

        Raises:
            StorageError: when no shard exists for ``fid``.
        """
        shard = self._shards.get(fid)
        if shard is None:
            raise StorageError(f"cannot restore epoch for unknown extractor {fid!r}")
        shard.epoch = int(epoch)

    def dim(self, fid: str) -> int | None:
        """Vector dimensionality for ``fid``, or None while unknown."""
        shard = self._shards.get(fid)
        if shard is None or shard.dim < 0:
            return None
        return shard.dim

    def has(self, fid: str, clip: ClipSpec) -> bool:
        """True when the exact clip has a stored vector for ``fid``."""
        shard = self._shards.get(fid)
        return shard is not None and shard.has(clip)

    def has_many(self, fid: str, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Boolean mask, aligned with ``clips``, of exact-clip coverage for ``fid``."""
        shard = self._shards.get(fid)
        if shard is None:
            return np.zeros(len(clips), dtype=bool)
        return np.fromiter(
            (shard.has(clip) for clip in clips), dtype=bool, count=len(clips)
        )

    def has_any_for_video(self, fid: str, vid: int) -> bool:
        """True when any clip of video ``vid`` has a stored vector for ``fid``."""
        shard = self._shards.get(fid)
        return shard is not None and bool(shard.rows_for_vid(vid))

    def get(self, fid: str, clip: ClipSpec) -> np.ndarray:
        """Return the vector stored for the exact clip.

        Raises:
            MissingFeatureError: when the clip has not been extracted.
        """
        return self._shard(fid).get(clip)

    def get_many(self, fid: str, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Exact-lookup matrix of shape ``(len(clips), d)``, one gather, no fallback.

        Raises:
            MissingFeatureError: when any clip (or the extractor) is missing.
        """
        shard = self._shard(fid)
        if not len(clips):
            return np.empty((0, max(shard.dim, 0)))
        rows = _exact_rows(shard, clips)
        if (rows < 0).any():
            clip = clips[int(np.flatnonzero(rows < 0)[0])]
            raise MissingFeatureError(
                f"no {fid} feature for vid={clip.vid} [{clip.start}, {clip.end}]"
            )
        return shard.matrix[rows]

    def vids_with_features(self, fid: str) -> list[int]:
        """Distinct vids that have at least one stored vector for ``fid``."""
        shard = self._shards.get(fid)
        if shard is None:
            return []
        return [vid for vid, rows in shard._vid_rows.items() if rows]

    def matrix(self, fid: str, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Stack the vectors for ``clips`` into a ``(len(clips), d)`` matrix.

        Falls back to the nearest stored clip on the same video when the exact
        clip is missing, matching how the prototype aligns 1-second labels to
        feature windows.  The whole batch resolves to row indices first (hash
        lookups for exact hits, one ``searchsorted`` per video with misses)
        and the result is a single columnar gather.

        Raises:
            MissingFeatureError: when the extractor is unknown or a clip's
                video has no stored vectors at all.
        """
        shard = self._shard(fid)
        rows = self._resolve_rows(shard, clips)
        if len(rows) == 0:
            return np.empty((0, max(shard.dim, 0)))
        return shard.matrix[rows]

    def resolve_clips(self, fid: str, clips: Sequence[ClipSpec]) -> list[ClipSpec]:
        """The stored clip each entry of ``clips`` resolves to under :meth:`matrix`."""
        shard = self._shard(fid)
        return shard.clips(self._resolve_rows(shard, clips))

    def resolve_rows(self, fid: str, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Row index each clip resolves to under :meth:`matrix`.

        Rows are append-only and never rewritten, so a row index — unlike the
        epoch — stays valid across writes; the Model Manager's design cache
        uses this to prove its cached gathers are still current after new
        vectors were appended.

        Raises:
            MissingFeatureError: when the extractor is unknown or a clip's
                video has no stored vectors at all.
        """
        return self._resolve_rows(self._shard(fid), clips)

    def _resolve_rows(
        self, shard: _ExtractorShard, clips: Sequence[ClipSpec]
    ) -> np.ndarray:
        if not len(clips):
            return np.empty(0, dtype=np.int64)
        rows = _exact_rows(shard, clips)
        miss = np.flatnonzero(rows < 0)
        if len(miss):
            qvids = np.array([clips[i].vid for i in miss], dtype=np.int64)
            qmids = np.array([(clips[i].start + clips[i].end) * 0.5 for i in miss])
            rows[miss] = shard.nearest_rows(qvids, qmids)
        return rows

    def covering_mask(self, fid: str, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Mask of clips already covered by a stored vector for ``fid``.

        A clip counts as covered when the exact clip is stored or when the
        nearest stored window on its video contains the clip midpoint.  Videos
        with no stored vectors yield False (no exception), so callers can use
        this to plan extraction work in one batched call.
        """
        shard = self._shards.get(fid)
        covered = np.zeros(len(clips), dtype=bool)
        if shard is None:
            return covered
        miss_indices: list[int] = []
        for i, clip in enumerate(clips):
            if shard.has(clip):
                covered[i] = True
            elif shard.rows_for_vid(clip.vid):
                miss_indices.append(i)
        if miss_indices:
            qvids = np.array([clips[i].vid for i in miss_indices], dtype=np.int64)
            qmids = np.array([(clips[i].start + clips[i].end) * 0.5 for i in miss_indices])
            rows = shard.nearest_rows(qvids, qmids)
            inside = (shard.starts[rows] <= qmids) & (qmids <= shard.ends[rows])
            covered[miss_indices] = inside
        return covered

    def all_vectors(self, fid: str) -> tuple[list[ClipSpec], np.ndarray]:
        """Every stored clip and a stacked matrix of its vectors for ``fid``."""
        shard = self._shards.get(fid)
        if shard is None:
            return [], np.empty((0, 0))
        return shard.clips(), shard.matrix.copy()

    def columns(
        self, fid: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only columnar views ``(vids, starts, ends, vectors)`` for ``fid``.

        This is the zero-copy access path: callers get views over the live
        arrays and must not mutate them.

        Raises:
            MissingFeatureError: when the extractor is unknown.
        """
        shard = self._shard(fid)
        return shard.vids, shard.starts, shard.ends, shard.matrix

    # ---------------------------------------------------------- vector search
    def search(
        self,
        fid: str,
        queries: np.ndarray,
        k: int = 10,
        index: IndexConfig = IndexConfig(),
        seed: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k-NN over ``fid``'s stored vectors: ``(squared_distances, rows)``.

        ``queries`` is one ``(d,)`` vector or a ``(q, d)`` batch; both returned
        arrays have shape ``(q, k)``, with rows short of ``k`` neighbours
        padded by ``inf``/``-1``.  Row indices convert to clips via
        :meth:`clips_at`.  ``index`` and ``seed`` choose the backend; the
        shard keeps the index it built until either changes.

        Raises:
            MissingFeatureError: when the extractor is unknown or empty.
        """
        shard = self._shard(fid)
        with telemetry.span(
            "search",
            "index",
            metric="index.search_seconds",
            fid=fid,
            backend=index.backend,
            k=k,
        ) as span:
            result = shard.search(queries, k, index, seed)
            candidates = int((result[1] >= 0).sum())
            span.set_attribute("candidates", candidates)
            telemetry.histogram(
                "index.search_candidates", buckets=telemetry.COUNT_BUCKETS
            ).observe(candidates)
        return result

    def clips_at(self, fid: str, rows: Iterable[int]) -> list[ClipSpec | None]:
        """Clips stored at ``rows`` for ``fid``; ``None`` for -1 (search padding)."""
        shard = self._shard(fid)
        return [None if row < 0 else shard.clip_at(int(row)) for row in rows]

    def _shard(self, fid: str) -> _ExtractorShard:
        shard = self._shards.get(fid)
        if shard is None:
            raise MissingFeatureError(f"no features stored for extractor {fid!r}")
        return shard

    # ------------------------------------------------------------- recovery
    def restore_columns(
        self,
        shards: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None],
        dims: dict[str, int],
        epochs: dict[str, int] | None = None,
    ) -> None:
        """Replace this store's contents in place from recovered columns.

        ``shards`` maps each extractor to its ``(vids, starts, ends,
        vectors)`` columns, or None for an empty shard; ``dims`` carries the
        dimensionality of empty shards.  Used by snapshot recovery, which
        bundles every shard's columns into one archive.  Vector indexes are
        rebuilt on the next search.
        """
        self._shards = {}
        for fid, columns in shards.items():
            dim = dims.get(fid)
            shard = _ExtractorShard(fid, dim=None if dim in (None, -1) else int(dim))
            self._shards[fid] = shard
            if columns is not None:
                shard.adopt_columns(*columns)
        if epochs:
            for fid, epoch in epochs.items():
                self.restore_epoch(fid, epoch)
