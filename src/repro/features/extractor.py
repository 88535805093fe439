"""Feature-extractor abstractions and registry.

An extractor turns a decoded clip into a fixed-size embedding.  The registry
tracks the candidate extractors the Active Learning Manager chooses between
(Table 3 of the paper), including their throughput, which drives the
scheduler's feature-extraction cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..exceptions import UnknownExtractorError
from ..video.decoder import DecodedClip

__all__ = ["ExtractorSpec", "FeatureExtractor", "ExtractorRegistry"]


@dataclass(frozen=True)
class ExtractorSpec:
    """Static description of one candidate feature extractor (paper Table 3)."""

    #: Short name used as the feature id (``fid``), e.g. "r3d".
    name: str
    #: "video" for clip-sequence models, "image" for frame models.
    input_type: str
    #: Human-readable architecture family, e.g. "Conv. net" or "Transformer".
    architecture: str
    #: Pretraining corpus, e.g. "Kinetics400".
    pretrained_on: str
    #: Output embedding dimensionality.
    dim: int
    #: 10-second videos processed per second on the reference GPU (Table 3).
    throughput: float

    def __post_init__(self) -> None:
        if self.input_type not in ("video", "image"):
            raise ValueError(f"input_type must be 'video' or 'image', got {self.input_type!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.throughput <= 0:
            raise ValueError(f"throughput must be > 0, got {self.throughput}")


class FeatureExtractor:
    """Base class: maps decoded clips to embeddings of dimension ``spec.dim``."""

    def __init__(self, spec: ExtractorSpec) -> None:
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def dim(self) -> int:
        return self.spec.dim

    def load_weights(self) -> None:
        """Get ready to extract now instead of on first use; idempotent.

        Extractors whose weights are drawn or loaded lazily override this; a
        session calls it for its candidates when it is built.
        """

    def extract(self, decoded: DecodedClip) -> np.ndarray:
        """Return a 1-D embedding of length ``self.dim`` for a decoded clip."""
        raise NotImplementedError

    def extract_batch(self, decoded_clips: Iterable[DecodedClip]) -> np.ndarray:
        """Extract embeddings for several clips; returns an (n, dim) matrix."""
        vectors = [self.extract(decoded) for decoded in decoded_clips]
        if not vectors:
            return np.empty((0, self.dim))
        return np.vstack(vectors)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, dim={self.dim})"


class ExtractorRegistry:
    """Ordered registry of candidate extractors keyed by name."""

    def __init__(self, extractors: Iterable[FeatureExtractor] = ()) -> None:
        self._extractors: dict[str, FeatureExtractor] = {}
        for extractor in extractors:
            self.register(extractor)

    def register(self, extractor: FeatureExtractor) -> None:
        """Add one extractor; re-registering the same name replaces it."""
        self._extractors[extractor.name] = extractor

    def get(self, name: str) -> FeatureExtractor:
        """Return the extractor registered under ``name``.

        Raises:
            UnknownExtractorError: when the name is not registered.
        """
        if name not in self._extractors:
            raise UnknownExtractorError(
                f"feature extractor {name!r} is not registered; "
                f"available: {sorted(self._extractors)}"
            )
        return self._extractors[name]

    def names(self) -> list[str]:
        """Registered extractor names in registration order."""
        return list(self._extractors)

    def specs(self) -> list[ExtractorSpec]:
        """Specs of all registered extractors in registration order."""
        return [extractor.spec for extractor in self._extractors.values()]

    def __contains__(self, name: str) -> bool:
        return name in self._extractors

    def __len__(self) -> int:
        return len(self._extractors)

    def __iter__(self) -> Iterator[FeatureExtractor]:
        return iter(self._extractors.values())
