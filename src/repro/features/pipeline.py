"""Feature-extraction pipeline.

The prototype builds a DALI pipeline per feature-extraction task and amortises
the pipeline setup over a batch of video segments.  This module mirrors that
structure: a pipeline decodes a batch of clips, applies one extractor, and
records how many pipelines were set up and how many clips were processed so
the scheduler's cost model can charge the same costs the paper measures.

A batch is decoded up front with :meth:`Decoder.decode_batch`, in chunks of
at most ``DECODE_CHUNK`` clips, and the pipeline keeps the decoded frames of
the last chunk: eager extraction hands every candidate feature the same
windows in turn, so the next batch usually asks for the same clips and reuses
their frames instead of decoding them again.  Decoding is deterministic per
clip, so reuse never changes a vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import telemetry
from ..types import ClipSpec
from ..video.decoder import DecodedClip, Decoder
from .extractor import FeatureExtractor

__all__ = ["PipelineStats", "FeatureExtractionPipeline"]

logger = logging.getLogger(__name__)


@dataclass
class PipelineStats:
    """Counters describing the work a pipeline has performed."""

    pipelines_created: int = 0
    clips_processed: int = 0
    clips_by_extractor: dict[str, int] = field(default_factory=dict)

    def record_batch(self, extractor_name: str, batch_size: int) -> None:
        """Count one pipeline setup processing ``batch_size`` clips."""
        self.pipelines_created += 1
        self.clips_processed += batch_size
        self.clips_by_extractor[extractor_name] = (
            self.clips_by_extractor.get(extractor_name, 0) + batch_size
        )


class FeatureExtractionPipeline:
    """Decode clips and run one extractor over them, batch by batch."""

    #: Most clips decoded at once.  Bounds the frames in memory on
    #: corpus-wide batches (128 windows of 32 frames are about 2 MB) and is
    #: above the eager tasks' usual batch of ten videos' windows (100).
    DECODE_CHUNK = 128

    def __init__(self, decoder: Decoder) -> None:
        self._decoder = decoder
        self.stats = PipelineStats()
        # Decoded frames of the last decoded chunk, by requested clip.  Read
        # and replaced in run(), which the FeatureManager calls under its
        # lock, so two threads sharing a session never interleave here.
        self._last_decoded: dict[ClipSpec, DecodedClip] = {}

    def run(
        self,
        extractor: FeatureExtractor,
        clips: Sequence[ClipSpec],
    ) -> tuple[list[ClipSpec], np.ndarray]:
        """Extract ``clips`` with ``extractor`` into one matrix.

        Returns the decoded clips (clamped to their videos) and an
        ``(len(clips), dim)`` matrix whose row ``i`` is clip ``i``'s vector.

        One call corresponds to one pipeline setup, so callers should batch
        clips (the prototype uses batches of ten videos) to amortise the
        setup cost the same way the paper does.  Each chunk of up to
        ``DECODE_CHUNK`` clips is decoded first (reusing the previous
        chunk's frames for repeated clips), then extracted.  Rows are ordered
        like ``clips``.
        """
        if not clips:
            return [], np.empty((0, extractor.dim))
        self.stats.record_batch(extractor.name, len(clips))
        with telemetry.span(
            "extract_batch",
            "features",
            metric="features.batch_seconds",
            extractor=extractor.name,
            clips=len(clips),
        ):
            telemetry.counter("features.clips_processed").add(len(clips))
            telemetry.counter("features.pipelines_created").add(1)
            decoded_clips: list[ClipSpec] = []
            matrices: list[np.ndarray] = []
            for begin in range(0, len(clips), self.DECODE_CHUNK):
                decoded = self._decode(clips[begin : begin + self.DECODE_CHUNK])
                decoded_clips.extend(item.clip for item in decoded)
                matrices.append(extractor.extract_batch(decoded))
            return decoded_clips, matrices[0] if len(matrices) == 1 else np.concatenate(matrices)

    def _decode(self, clips: Sequence[ClipSpec]) -> list[DecodedClip]:
        """Decode ``clips``, taking repeats of the last chunk from its frames."""
        previous = self._last_decoded
        missing = list(dict.fromkeys(clip for clip in clips if clip not in previous))
        fresh = dict(zip(missing, self._decoder.decode_batch(missing)))
        decoded = [fresh[clip] if clip in fresh else previous[clip] for clip in clips]
        self._last_decoded = dict(zip(clips, decoded))
        return decoded
