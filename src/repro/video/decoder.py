"""Simulated video decoder.

Real VOCALExplore decodes encoded video with NVIDIA DALI (or PyTorchVideo) and
feeds frame tensors into the pretrained extractors.  The simulated decoder
materialises frame "tensors" — rows in the corpus latent space — for a clip.
Decoding itself is free in wall-clock terms here; its *cost* is charged by the
scheduler's cost model exactly where the paper pays GPU decode time, so the
latency experiments still exercise the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import InvalidClipError
from ..types import ClipSpec
from .corpus import VideoCorpus
from .streams import MIN_VECTORIZED_BATCH

__all__ = ["DecodedClip", "Decoder"]


@dataclass(frozen=True)
class DecodedClip:
    """Decoded frames for one clip.

    Attributes:
        clip: The decoded time interval.
        frames: Array of shape (num_frames, latent_dim); each row is one frame.
        fps: Frame rate the frames were sampled at.
    """

    clip: ClipSpec
    frames: np.ndarray
    fps: float

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])

    def middle_frame(self) -> np.ndarray:
        """The center frame (used by single-frame image extractors such as CLIP)."""
        return self.frames[self.num_frames // 2]

    def strided_frames(self, stride: int) -> np.ndarray:
        """Every ``stride``-th frame (used by sequence models and pooled extractors)."""
        if stride < 1:
            raise InvalidClipError(f"stride must be >= 1, got {stride}")
        return self.frames[::stride]


class Decoder:
    """Decodes clips of corpus videos into frame arrays."""

    def __init__(self, corpus: VideoCorpus) -> None:
        self._corpus = corpus

    @property
    def corpus(self) -> VideoCorpus:
        return self._corpus

    def decode(self, clip: ClipSpec, fps: float | None = None) -> DecodedClip:
        """Decode one clip into frames.

        Args:
            clip: The time interval to decode; clamped to the video duration.
            fps: Optional frame rate override; defaults to the video's own rate.

        Raises:
            InvalidClipError: when the clip starts at or beyond the video's end.
        """
        clamped, rate, num_frames = self._plan(clip, fps)
        frames = self._corpus.frame_latents(clamped, num_frames)
        return DecodedClip(clip=clamped, frames=frames, fps=rate)

    def decode_batch(
        self, clips: Sequence[ClipSpec], fps: float | None = None
    ) -> list[DecodedClip]:
        """Decode several clips at once; element ``i`` equals ``decode(clips[i], fps)``.

        The frames are bit-identical to the per-clip path; the batch only
        shares the work (see :meth:`VideoCorpus.frame_latents_batch`).
        Batches smaller than ``MIN_VECTORIZED_BATCH`` decode clip by clip.
        Errors are those of the first clip that fails to decode.
        """
        if len(clips) < MIN_VECTORIZED_BATCH:
            return [self.decode(clip, fps) for clip in clips]
        plans = [self._plan(clip, fps) for clip in clips]
        frames = self._corpus.frame_latents_batch(
            [clamped for clamped, __, __ in plans], [count for __, __, count in plans]
        )
        return [
            DecodedClip(clip=clamped, frames=clip_frames, fps=rate)
            for (clamped, rate, __), clip_frames in zip(plans, frames)
        ]

    def _plan(self, clip: ClipSpec, fps: float | None) -> tuple[ClipSpec, float, int]:
        """The clamped clip, frame rate and frame count ``decode`` produces."""
        video = self._corpus.video(clip.vid)
        duration = video.record.duration
        if clip.start >= duration:
            raise InvalidClipError(
                f"clip start {clip.start} is beyond video {clip.vid} duration {duration}"
            )
        clamped = ClipSpec(clip.vid, clip.start, min(clip.end, duration))
        rate = fps if fps is not None else video.record.fps
        return clamped, rate, max(1, int(round(clamped.duration * rate)))
