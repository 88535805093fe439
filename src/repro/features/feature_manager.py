"""Feature Manager (FM).

The FM "returns feature representations of video segments" (paper Section
2.3).  It owns the decoder, the extractor registry, and the feature store, and
exposes the two granularities of extraction the system needs:

* per-clip extraction for the clips the user is about to label or watch, and
* per-video extraction over the feature-window grid, used for active-learning
  candidate pools and for eager background processing.

Every method returns how much new work it performed so the Task Scheduler can
charge the corresponding simulated latency.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..storage.feature_store import FeatureStore
from ..storage.video_store import VideoStore
from ..types import ClipSpec
from ..video.decoder import Decoder
from ..video.sampler import ClipSampler
from .extractor import ExtractorRegistry, FeatureExtractor
from .pipeline import FeatureExtractionPipeline

__all__ = ["ExtractionReport", "FeatureManager"]


@dataclass(frozen=True)
class ExtractionReport:
    """How much new extraction work one call performed."""

    extractor: str
    requested_clips: int
    extracted_clips: int
    videos_touched: int

    @property
    def skipped_clips(self) -> int:
        return self.requested_clips - self.extracted_clips


class FeatureManager:
    """Extracts, caches, and serves feature vectors."""

    def __init__(
        self,
        registry: ExtractorRegistry,
        decoder: Decoder,
        video_store: VideoStore,
        feature_store: FeatureStore | None = None,
        sampler: ClipSampler | None = None,
    ) -> None:
        self.registry = registry
        self.store = feature_store if feature_store is not None else FeatureStore()
        self.sampler = sampler if sampler is not None else ClipSampler()
        self._videos = video_store
        self._pipeline = FeatureExtractionPipeline(decoder)
        # Serialises extraction bookkeeping and store reads for callers that
        # share one session across threads (the scheduler itself runs every
        # task on the calling thread); reentrant because ensure_* methods
        # call _extract and callers of reserve() call ensure_* under it.
        self._lock = threading.RLock()

    # ---------------------------------------------------------------- plumbing
    def extractor(self, name: str) -> FeatureExtractor:
        """Return the registered extractor called ``name``."""
        return self.registry.get(name)

    def reserve(self) -> AbstractContextManager:
        """The manager lock, for a caller that reads the store across calls.

        Use it as ``with features.reserve():`` to keep another thread's
        extraction from writing between a consistency check and the read
        that relies on it.
        """
        return self._lock

    # -------------------------------------------------------------- extraction
    def ensure_clip_features(self, fid: str, clips: Sequence[ClipSpec]) -> ExtractionReport:
        """Make sure every clip in ``clips`` has a stored feature for ``fid``.

        A clip is considered covered when the exact clip has a vector or when
        the video already has a feature window containing the clip midpoint.
        Coverage for the whole batch is resolved in one store call; only the
        uncovered clips are mapped to their feature windows and extracted,
        matching how the prototype aligns 1-second labels to windows.
        """
        extractor = self.registry.get(fid)
        with self._lock:
            covered = self.store.covering_mask(fid, clips)
            missing: list[ClipSpec] = []
            seen_windows: set[ClipSpec] = set()
            touched_vids: set[int] = set()
            for clip, is_covered in zip(clips, covered):
                if is_covered:
                    continue
                video = self._videos.get(clip.vid)
                window = self.sampler.window_containing(
                    video, min(clip.midpoint, max(0.0, video.duration - 1e-6))
                )
                if window not in seen_windows:
                    seen_windows.add(window)
                    missing.append(window)
                touched_vids.add(clip.vid)
            extracted = self._extract(extractor, missing)
        return ExtractionReport(
            extractor=fid,
            requested_clips=len(clips),
            extracted_clips=extracted,
            videos_touched=len(touched_vids),
        )

    def ensure_video_features(self, fid: str, vids: Sequence[int]) -> ExtractionReport:
        """Extract the full feature-window grid for each video in ``vids``.

        Videos that already have any stored window for ``fid`` are skipped, so
        repeated calls are cheap and incremental (pay-as-you-go).
        """
        extractor = self.registry.get(fid)
        with self._lock:
            windows: list[ClipSpec] = []
            touched: set[int] = set()
            for vid in vids:
                if self.store.has_any_for_video(fid, vid):
                    continue
                video = self._videos.get(vid)
                windows.extend(self.sampler.feature_windows(video))
                touched.add(vid)
            extracted = self._extract(extractor, windows)
        return ExtractionReport(
            extractor=fid,
            requested_clips=len(windows),
            extracted_clips=extracted,
            videos_touched=len(touched),
        )

    def extract_all(self, fid: str) -> ExtractionReport:
        """Preprocess the entire corpus for one extractor (the paper's "PP" baselines)."""
        return self.ensure_video_features(fid, self._videos.vids())

    def _extract(self, extractor: FeatureExtractor, clips: Sequence[ClipSpec]) -> int:
        if not clips:
            return 0
        with self._lock:
            extracted, vectors = self._pipeline.run(extractor, clips)
            # One columnar batch insert per extraction call: a single store
            # write (and, with durability on, a single journal record)
            # instead of one per window.
            return self.store.add_batch(
                extractor.name,
                np.fromiter((c.vid for c in extracted), dtype=np.int64, count=len(extracted)),
                np.fromiter((c.start for c in extracted), dtype=np.float64, count=len(extracted)),
                np.fromiter((c.end for c in extracted), dtype=np.float64, count=len(extracted)),
                vectors,
            )

    # ------------------------------------------------------------------ access
    # Reads also take the manager lock, so a read never sees a store that
    # another thread's extraction has half written.
    def matrix(self, fid: str, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Stacked feature matrix for ``clips`` (extracting any that are missing)."""
        with self._lock:
            self.ensure_clip_features(fid, clips)
            return self.store.matrix(fid, clips)

    def get_many(self, fid: str, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Exact-lookup matrix for already-extracted clips (no extraction, no fallback)."""
        with self._lock:
            return self.store.get_many(fid, clips)

    def has_many(self, fid: str, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Boolean mask of exact-clip feature coverage, aligned with ``clips``."""
        with self._lock:
            return self.store.has_many(fid, clips)

    def candidate_pool_columns(
        self, fid: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columnar views ``(vids, starts, ends, vectors)`` of the candidate pool.

        Zero-copy access for vectorized filtering; callers must not mutate the
        returned arrays.  Unknown extractors yield empty columns.
        """
        with self._lock:
            if fid not in self.store.extractors():
                empty = np.empty(0, dtype=np.float64)
                return np.empty(0, dtype=np.int64), empty, empty, np.empty((0, 0))
            return self.store.columns(fid)

    def vids_with_features(self, fid: str) -> list[int]:
        """Videos that already have at least one stored window for ``fid``."""
        with self._lock:
            return self.store.vids_with_features(fid)
