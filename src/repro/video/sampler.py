"""Clip sampling utilities.

Two kinds of clip enumeration are needed:

* **Feature windows** — the fixed grid of windows (sequence length 16, stride
  2, step 32 raw frames in the paper) over which features are extracted and
  predictions are made.
* **Exploration clips** — the ``B`` clips of duration ``t`` returned by
  ``Explore``; these are drawn from videos by the acquisition functions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import InvalidClipError
from ..types import ClipSpec, VideoRecord

__all__ = ["ClipSampler"]


class ClipSampler:
    """Stateless helpers for enumerating and sampling clips."""

    def __init__(
        self,
        sequence_length: int = 16,
        stride: int = 2,
        step: int = 32,
    ) -> None:
        """Configure the feature-window grid.

        Args:
            sequence_length: Frames fed to a video model per window.
            stride: Gap between consecutive sampled frames.
            step: Gap, in raw frames, between the starts of consecutive windows.
        """
        if sequence_length < 1 or stride < 1 or step < 1:
            raise InvalidClipError("sequence_length, stride, and step must all be >= 1")
        self.sequence_length = sequence_length
        self.stride = stride
        self.step = step

    # ------------------------------------------------------------ feature grid
    def window_duration(self, fps: float) -> float:
        """Length in seconds of one feature window at the given frame rate."""
        return self.sequence_length * self.stride / fps

    def step_duration(self, fps: float) -> float:
        """Gap in seconds between consecutive feature-window starts."""
        return self.step / fps

    def feature_windows(self, video: VideoRecord) -> list[ClipSpec]:
        """The full grid of feature windows covering one video.

        Every video yields at least one window even when it is shorter than
        the nominal window duration.
        """
        window = self.window_duration(video.fps)
        step = self.step_duration(video.fps)
        clips: list[ClipSpec] = []
        start = 0.0
        while start < video.duration:
            end = min(start + window, video.duration)
            if end > start:
                clips.append(ClipSpec(video.vid, start, end))
            start += step
        if not clips:
            clips.append(ClipSpec(video.vid, 0.0, video.duration))
        return clips

    def window_containing(self, video: VideoRecord, time: float) -> ClipSpec:
        """The feature window whose span contains ``time`` (clamped to the video)."""
        if time < 0 or time >= video.duration:
            raise InvalidClipError(
                f"time {time} falls outside video {video.vid} of duration {video.duration}"
            )
        step = self.step_duration(video.fps)
        index = int(time // step)
        window = self.window_duration(video.fps)
        start = index * step
        end = min(start + window, video.duration)
        if end <= start:
            start = max(0.0, video.duration - window)
            end = video.duration
        return ClipSpec(video.vid, start, end)

    # -------------------------------------------------------- exploration clips
    def random_clip(
        self, video: VideoRecord, duration: float, rng: np.random.Generator
    ) -> ClipSpec:
        """Sample one clip of (up to) ``duration`` seconds uniformly from a video."""
        if duration <= 0:
            raise InvalidClipError(f"clip duration must be > 0, got {duration}")
        usable = max(0.0, video.duration - duration)
        start = float(rng.uniform(0.0, usable)) if usable > 0 else 0.0
        end = min(start + duration, video.duration)
        return ClipSpec(video.vid, start, end)

    def random_clips(
        self,
        videos: Sequence[VideoRecord],
        duration: float,
        count: int,
        rng: np.random.Generator,
        replace: bool = False,
    ) -> list[ClipSpec]:
        """Sample ``count`` clips across ``videos``.

        Videos are sampled without replacement when possible, so a batch spreads
        across distinct videos exactly like the prototype's Explore sampling.
        """
        if not videos:
            return []
        if count < 1:
            raise InvalidClipError(f"count must be >= 1, got {count}")
        use_replace = replace or count > len(videos)
        indices = rng.choice(len(videos), size=count, replace=use_replace)
        return [self.random_clip(videos[int(i)], duration, rng) for i in indices]

    def consecutive_clips(
        self, video: VideoRecord, start: float, end: float, duration: float
    ) -> list[ClipSpec]:
        """Consecutive clips of ``duration`` seconds covering [start, end] of one video.

        This is the segmentation used by ``Watch(vid, start, end)``.
        """
        if duration <= 0:
            raise InvalidClipError(f"clip duration must be > 0, got {duration}")
        start = max(0.0, start)
        end = min(end, video.duration)
        if end <= start:
            raise InvalidClipError(
                f"watch window [{start}, {end}] is empty for video {video.vid}"
            )
        clips: list[ClipSpec] = []
        cursor = start
        while cursor < end - 1e-9:
            clip_end = min(cursor + duration, end)
            clips.append(ClipSpec(video.vid, cursor, clip_end))
            cursor = clip_end
        return clips
