"""Synthetic video corpus.

A :class:`VideoCorpus` owns the videos of one dataset: their metadata records,
their ground-truth :class:`~repro.video.activity.ActivityTrack`, and the
latent "content" process the simulated feature extractors observe.

The latent model is the substitution for real pixels (see DESIGN.md):

* Each activity class has a fixed latent prototype vector in R^L.
* The content of a clip is the overlap-weighted mixture of the prototypes of
  the activities present in that clip, plus per-video appearance noise (the
  same animal/scene looks similar across a video) and per-clip temporal noise.
* An extractor with a high signal-to-noise ratio for the dataset recovers the
  prototype mixture; a low-quality extractor mostly sees the noise.

This keeps every property the paper's experiments rely on: clips of the same
activity cluster in good feature spaces, clips of rare activities are rare,
and a random extractor carries no usable signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import UnknownVideoError, VideoError
from ..types import ClipSpec, VideoRecord
from .activity import ActivityTrack
from .streams import milliseconds, standard_normal_rows

__all__ = ["CorpusVideo", "VideoCorpus"]

#: Dimensionality of the latent content space shared by all datasets.
DEFAULT_LATENT_DIM = 64


@dataclass(frozen=True)
class CorpusVideo:
    """One synthetic video: metadata plus its ground-truth activity track."""

    record: VideoRecord
    track: ActivityTrack

    @property
    def vid(self) -> int:
        return self.record.vid


class VideoCorpus:
    """The full collection of synthetic videos for one dataset."""

    def __init__(
        self,
        class_names: Sequence[str],
        latent_dim: int = DEFAULT_LATENT_DIM,
        within_class_noise: float = 0.45,
        per_video_noise: float = 0.30,
        temporal_noise: float = 0.35,
        seed: int = 0,
    ) -> None:
        if not class_names:
            raise VideoError("a corpus needs at least one activity class")
        self.class_names = list(class_names)
        self.latent_dim = int(latent_dim)
        self.within_class_noise = float(within_class_noise)
        self.per_video_noise = float(per_video_noise)
        self.temporal_noise = float(temporal_noise)
        self.seed = int(seed)

        rng = np.random.default_rng(seed)
        # Class prototypes: near-orthogonal unit vectors in latent space.
        prototypes = rng.standard_normal((len(self.class_names), self.latent_dim))
        prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
        self._prototypes = prototypes
        self._class_index = {name: i for i, name in enumerate(self.class_names)}

        self._videos: dict[int, CorpusVideo] = {}
        self._video_noise: dict[int, np.ndarray] = {}
        # Per-video segment columns for the batch path, built on first use.
        self._segments: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._next_vid = 0
        # Noise vectors are drawn i.i.d. per dimension and rescaled so their
        # expected norm equals the configured noise level; class prototypes are
        # unit vectors, so the noise parameters read directly as noise-to-signal
        # ratios.
        self._noise_unit = 1.0 / np.sqrt(self.latent_dim)

    # ------------------------------------------------------------------ builds
    def __len__(self) -> int:
        return len(self._videos)

    def __contains__(self, vid: int) -> bool:
        return vid in self._videos

    def add_video(
        self,
        track: ActivityTrack,
        path: str | None = None,
        start_time: float = 0.0,
        fps: float = 30.0,
    ) -> CorpusVideo:
        """Register one synthetic video and return it (:meth:`add_videos` of one track)."""
        return self._register([track], [path], start_time, fps)[0]

    def add_videos(self, tracks: Iterable[ActivityTrack]) -> list[CorpusVideo]:
        """Register several videos; returns them in order.

        Each video's appearance noise is ``default_rng((seed, vid, 0xA5))``'s
        normal draw, and the streams of the whole batch are seeded in one
        pass (:func:`~repro.video.streams.standard_normal_rows`).  Nothing is
        registered when any track uses an activity outside the vocabulary.
        """
        tracks = list(tracks)
        return self._register(tracks, [None] * len(tracks))

    def _register(
        self,
        tracks: list[ActivityTrack],
        paths: list[str | None],
        start_time: float = 0.0,
        fps: float = 30.0,
    ) -> list[CorpusVideo]:
        for track in tracks:
            unknown = set(track.activities()) - set(self.class_names)
            if unknown:
                raise VideoError(
                    f"track uses activities not in the corpus vocabulary: {sorted(unknown)}"
                )
        vids = np.arange(self._next_vid, self._next_vid + len(tracks), dtype=np.int64)
        self._next_vid += len(tracks)
        noise = standard_normal_rows([self.seed, vids, 0xA5], self.latent_dim)
        noise *= self.per_video_noise
        noise *= self._noise_unit
        videos = []
        for vid, track, path, video_noise in zip(vids.tolist(), tracks, paths, noise):
            record = VideoRecord(
                vid=vid,
                path=path if path is not None else f"synthetic://video/{vid}.mp4",
                duration=track.duration,
                start_time=start_time,
                fps=fps,
            )
            video = CorpusVideo(record=record, track=track)
            self._videos[vid] = video
            self._video_noise[vid] = video_noise
            videos.append(video)
        return videos

    # ------------------------------------------------------------------- reads
    def video(self, vid: int) -> CorpusVideo:
        """Return the video with id ``vid``."""
        if vid not in self._videos:
            raise UnknownVideoError(f"video {vid} is not in the corpus")
        return self._videos[vid]

    def videos(self) -> list[CorpusVideo]:
        """All videos in insertion order."""
        return [self._videos[vid] for vid in sorted(self._videos)]

    def vids(self) -> list[int]:
        """All video ids in insertion order."""
        return sorted(self._videos)

    def records(self) -> list[VideoRecord]:
        """Metadata records of all videos."""
        return [video.record for video in self.videos()]

    def class_prototype(self, class_name: str) -> np.ndarray:
        """The latent prototype vector of one activity class."""
        if class_name not in self._class_index:
            raise VideoError(f"unknown activity class {class_name!r}")
        return self._prototypes[self._class_index[class_name]]

    # ----------------------------------------------------------------- content
    def ground_truth_labels(self, clip: ClipSpec, min_overlap: float = 0.0) -> list[str]:
        """Activities overlapping ``clip`` (what a perfect labeler would report)."""
        video = self.video(clip.vid)
        end = min(clip.end, video.record.duration)
        return video.track.activities_in(clip.start, end, min_overlap=min_overlap)

    def dominant_label(self, clip: ClipSpec) -> str | None:
        """The activity with the largest overlap with ``clip`` (or None)."""
        video = self.video(clip.vid)
        end = min(clip.end, video.record.duration)
        return video.track.dominant_activity(clip.start, end)

    def clip_latent(self, clip: ClipSpec) -> np.ndarray:
        """Latent content vector for one clip.

        The vector is the overlap-weighted mixture of the active class
        prototypes plus per-video and per-clip noise.  It is deterministic in
        (corpus seed, vid, clip boundaries).
        """
        video, end = self._clamped(clip)
        mixture = np.zeros(self.latent_dim)
        total_overlap = 0.0
        for segment in video.track.segments:
            overlap = segment.overlap(clip.start, end)
            if overlap > 0:
                mixture += overlap * self._prototypes[self._class_index[segment.activity]]
                total_overlap += overlap
        if total_overlap > 0:
            mixture /= total_overlap

        clip_rng = np.random.default_rng(
            (self.seed, clip.vid, int(round(clip.start * 1000)), int(round(end * 1000)))
        )
        clip_noise = (
            clip_rng.standard_normal(self.latent_dim) * self.within_class_noise * self._noise_unit
        )
        return mixture + self._video_noise[clip.vid] + clip_noise

    def clip_latents(self, clips: Sequence[ClipSpec]) -> np.ndarray:
        """Stacked :meth:`clip_latent` of several clips, one row per clip.

        Every row is bit-identical to ``clip_latent(clip)``: the mixture is
        accumulated segment by segment in track order, each step done for
        all clips at once, and the per-clip noise streams are seeded in one
        pass (:func:`~repro.video.streams.standard_normal_rows`).  Errors are
        those of the first failing clip.
        """
        n = len(clips)
        if n == 0:
            return np.empty((0, self.latent_dim))
        starts = np.empty(n)
        ends = np.empty(n)
        vids = np.empty(n, dtype=np.int64)
        segments = []
        for i, clip in enumerate(clips):
            video, end = self._clamped(clip)
            starts[i], ends[i], vids[i] = clip.start, end, clip.vid
            segments.append(self._segment_columns(video))

        # Segment j of every clip's video side by side; clips whose video has
        # fewer segments get an empty [0, 0] one, which never overlaps.
        width = max(len(classes) for __, __, classes in segments)
        seg_starts = np.zeros((n, width))
        seg_ends = np.zeros((n, width))
        seg_classes = np.zeros((n, width), dtype=np.int64)
        for i, (seg_start, seg_end, classes) in enumerate(segments):
            seg_starts[i, : len(classes)] = seg_start
            seg_ends[i, : len(classes)] = seg_end
            seg_classes[i, : len(classes)] = classes
        overlaps = np.minimum(seg_ends, ends[:, None]) - np.maximum(seg_starts, starts[:, None])
        mixture = np.zeros((n, self.latent_dim))
        total_overlap = np.zeros(n)
        for j in range(width):
            rows = np.flatnonzero(overlaps[:, j] > 0)
            overlap = overlaps[rows, j]
            mixture[rows] += overlap[:, None] * self._prototypes[seg_classes[rows, j]]
            total_overlap[rows] += overlap
        covered = total_overlap > 0
        mixture[covered] /= total_overlap[covered, None]

        key = [self.seed, vids, milliseconds(starts), milliseconds(ends)]
        clip_noise = standard_normal_rows(key, self.latent_dim)
        clip_noise *= self.within_class_noise
        clip_noise *= self._noise_unit
        video_noise = np.stack([self._video_noise[vid] for vid in vids.tolist()])
        return mixture + video_noise + clip_noise

    def _clamped(self, clip: ClipSpec) -> tuple[CorpusVideo, float]:
        """The clip's video and its end clamped to the video's duration."""
        video = self.video(clip.vid)
        end = min(clip.end, video.record.duration)
        if end <= clip.start:
            raise VideoError(
                f"clip [{clip.start}, {clip.end}] falls outside video {clip.vid} "
                f"of duration {video.record.duration}"
            )
        return video, end

    def _segment_columns(self, video: CorpusVideo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A video's segment starts, ends and class indices, in track order."""
        if video.vid not in self._segments:
            segments = video.track.segments
            self._segments[video.vid] = (
                np.array([s.start for s in segments], dtype=np.float64),
                np.array([s.end for s in segments], dtype=np.float64),
                np.array([self._class_index[s.activity] for s in segments], dtype=np.int64),
            )
        return self._segments[video.vid]

    def frame_latents(self, clip: ClipSpec, num_frames: int) -> np.ndarray:
        """Per-frame latent vectors for a clip (the decoder's raw material).

        Frames within a clip share the clip latent but add small temporal
        noise, so frame-level extractors (CLIP) see a noisier view than
        clip-level extractors that pool across frames.
        """
        if num_frames < 1:
            raise VideoError(f"num_frames must be >= 1, got {num_frames}")
        base = self.clip_latent(clip)
        frame_rng = np.random.default_rng(
            (self.seed, clip.vid, int(round(clip.start * 1000)), num_frames, 0xF7)
        )
        noise = (
            frame_rng.standard_normal((num_frames, self.latent_dim))
            * self.temporal_noise
            * self._noise_unit
        )
        return base[None, :] + noise

    def frame_latents_batch(
        self, clips: Sequence[ClipSpec], num_frames: Sequence[int]
    ) -> list[np.ndarray]:
        """:meth:`frame_latents` of several clips, bit-identical per clip.

        ``num_frames[i]`` is the frame count of ``clips[i]``.  Clips with the
        same frame count draw their noise in one block; each returned array
        is its own allocation, so holding one clip's frames does not keep the
        rest of its batch alive.
        """
        counts = np.asarray(num_frames, dtype=np.int64)
        if len(counts) != len(clips):
            raise VideoError("num_frames needs one entry per clip")
        if len(counts) and counts.min() < 1:
            raise VideoError(f"num_frames must be >= 1, got {int(counts.min())}")
        base = self.clip_latents(clips)
        vids = np.fromiter((clip.vid for clip in clips), dtype=np.int64, count=len(clips))
        starts = milliseconds([clip.start for clip in clips])
        frames: dict[int, np.ndarray] = {}
        for count in np.unique(counts).tolist():
            rows = np.flatnonzero(counts == count)
            key = [self.seed, vids[rows], starts[rows], count, 0xF7]
            noise = standard_normal_rows(key, (count, self.latent_dim))
            noise *= self.temporal_noise
            noise *= self._noise_unit
            for row, clip_noise in zip(rows.tolist(), noise):
                frames[row] = base[row][None, :] + clip_noise
        return [frames[row] for row in range(len(clips))]

    # ------------------------------------------------------------------- stats
    def class_video_counts(self) -> dict[str, int]:
        """Number of videos in which each class appears."""
        counts = {name: 0 for name in self.class_names}
        for video in self.videos():
            for name in video.track.activities():
                counts[name] += 1
        return counts

    def describe(self) -> Mapping[str, object]:
        """Corpus summary used by reports and Table 2 reproduction."""
        durations = [video.record.duration for video in self.videos()]
        return {
            "num_videos": len(self),
            "num_classes": len(self.class_names),
            "total_duration": float(np.sum(durations)) if durations else 0.0,
            "mean_duration": float(np.mean(durations)) if durations else 0.0,
            "class_video_counts": self.class_video_counts(),
        }

