"""Simulated pretrained feature extractors.

The paper's prototype uses five pretrained models (Table 3): R3D and MViT
video models, CLIP and CLIP (Pooled) image models, and a Random baseline with
MViT's architecture but random weights.  This module provides simulated
equivalents with the same names, dimensions, input types, and relative
throughputs.

Each simulated extractor applies a fixed random projection to the clip's
latent content and mixes in clip-specific distractor noise.  The projection
is drawn from the extractor's seed on first use, so building an extractor
costs nothing until it is asked to extract.  The mixing weight
(``signal_quality``) is dataset dependent and supplied by the dataset catalog,
which encodes the per-dataset extractor ranking observed in the paper's
Figure 4 (e.g. video models beat CLIP on Deer, CLIP variants win on BDD, and
the Random extractor carries no signal anywhere).

Frame handling differs by extractor exactly as in the paper:

* video models consume the full strided frame sequence and average it,
* CLIP embeds only the middle frame of each window,
* CLIP (Pooled) embeds every other frame and max-pools the embeddings.
"""

from __future__ import annotations

import threading
import zlib
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..video.decoder import DecodedClip
from ..video.streams import MIN_VECTORIZED_BATCH, milliseconds, standard_normal_rows
from .extractor import ExtractorRegistry, ExtractorSpec, FeatureExtractor

__all__ = [
    "SimulatedExtractor",
    "ConcatExtractor",
    "PRETRAINED_SPECS",
    "DEFAULT_EXTRACTOR_NAMES",
    "build_extractor",
    "build_default_registry",
]

#: Specs matching the paper's Table 3 (name, type, architecture, pretraining,
#: output dimension, throughput in 10-second videos per second).
PRETRAINED_SPECS: dict[str, ExtractorSpec] = {
    "r3d": ExtractorSpec(
        name="r3d",
        input_type="video",
        architecture="Conv. net",
        pretrained_on="Kinetics400",
        dim=512,
        throughput=4.03,
    ),
    "mvit": ExtractorSpec(
        name="mvit",
        input_type="video",
        architecture="Transformer",
        pretrained_on="Kinetics400",
        dim=768,
        throughput=2.93,
    ),
    "clip": ExtractorSpec(
        name="clip",
        input_type="image",
        architecture="Transformer",
        pretrained_on="Internet images",
        dim=512,
        throughput=3.64,
    ),
    "clip_pooled": ExtractorSpec(
        name="clip_pooled",
        input_type="image",
        architecture="Transformer",
        pretrained_on="Internet images",
        dim=512,
        throughput=3.45,
    ),
    "random": ExtractorSpec(
        name="random",
        input_type="video",
        architecture="Transformer",
        pretrained_on="None",
        dim=768,
        throughput=2.96,
    ),
}

#: Registration order used throughout the evaluation.
DEFAULT_EXTRACTOR_NAMES: tuple[str, ...] = ("r3d", "mvit", "clip", "clip_pooled", "random")

#: Frame-pooling behaviour per extractor (see module docstring).
_POOLING_BY_NAME = {
    "r3d": "mean",
    "mvit": "mean",
    "clip": "middle",
    "clip_pooled": "max_every_other",
    "random": "mean",
}


def _draw_weights(
    seed: int, spec: ExtractorSpec, latent_dim: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """One extractor's projection, distractor basis and clip-noise seed.

    The distractor basis injects clip-specific noise through its own fixed
    directions, so the noise is structured (not white) but carries no class
    information.
    """
    # zlib.crc32 is a stable per-name salt; Python's hash() is randomised
    # per process, which would make "seeded" features differ across runs.
    rng = np.random.default_rng((seed, zlib.crc32(spec.name.encode()) & 0xFFFF))
    projection = rng.standard_normal((latent_dim, spec.dim)) / np.sqrt(latent_dim)
    distractor_basis = rng.standard_normal((latent_dim, spec.dim)) / np.sqrt(latent_dim)
    return projection, distractor_basis, int(rng.integers(0, 2**31 - 1))


#: A simulated extractor's weights, in the order they are drawn.
_WEIGHT_NAMES = ("_projection", "_distractor_basis", "_noise_seed")


class SimulatedExtractor(FeatureExtractor):
    """A pretrained extractor simulated as a noisy projection of clip content."""

    def __init__(
        self,
        spec: ExtractorSpec,
        latent_dim: int,
        signal_quality: float,
        pooling: str = "mean",
        seed: int = 0,
    ) -> None:
        """Create one simulated extractor.

        Args:
            spec: Static extractor description (name, dim, throughput, ...).
            latent_dim: Dimensionality of the corpus latent space.
            signal_quality: Fraction of the output explained by clip content;
                0 reproduces the paper's Random extractor, values near 1 give a
                nearly noiseless embedding of the activity mixture.
            pooling: How frames are combined: "mean", "middle", or
                "max_every_other".
            seed: Seed for the fixed projection matrices.
        """
        super().__init__(spec)
        if not 0.0 <= signal_quality <= 1.0:
            raise ValueError(f"signal_quality must be in [0, 1], got {signal_quality}")
        if pooling not in ("mean", "middle", "max_every_other"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.signal_quality = float(signal_quality)
        self.pooling = pooling
        self.latent_dim = int(latent_dim)
        self._seed = seed
        self._draw_lock = threading.Lock()
        self._weights_drawn = False

    def load_weights(self) -> None:
        """Draw this extractor's weights; later calls return at once.

        Reading a weight draws all of them, so extraction calls this
        implicitly; callers that know they will extract call it up front to
        keep the draw out of their first request.  The draw runs once under a
        lock, because extraction may start on several threads at once.  A
        weight assigned before the draw is kept.
        """
        if self._weights_drawn:
            return
        with self._draw_lock:
            if self._weights_drawn:
                return
            weights = _draw_weights(self._seed, self.spec, self.latent_dim)
            state = vars(self)
            for attr, value in zip(_WEIGHT_NAMES, weights):
                state.setdefault(attr, value)
            self._weights_drawn = True

    def __getattr__(self, name: str):
        # Runs only for attributes the instance does not hold: a weight read
        # before the draw draws them all.  Afterwards each weight is a plain
        # instance attribute, so reads cost nothing extra.
        if name in _WEIGHT_NAMES:
            self.load_weights()
            return vars(self)[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _pool_frames(self, decoded: DecodedClip) -> np.ndarray:
        if self.pooling == "middle":
            return decoded.middle_frame()
        return decoded.frames.mean(axis=0)

    def _clip_noise(self, decoded: DecodedClip) -> np.ndarray:
        clip = decoded.clip
        rng = np.random.default_rng(
            (self._noise_seed, clip.vid, int(round(clip.start * 1000)), int(round(clip.end * 1000)))
        )
        latent_noise = rng.standard_normal(self.latent_dim)
        return latent_noise @ self._distractor_basis

    @staticmethod
    def _unit(vector: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0 else vector

    def extract(self, decoded: DecodedClip) -> np.ndarray:
        """Embed one decoded clip.

        The clip-content signal and the clip-specific distractor noise are
        normalised to unit length before mixing, so ``signal_quality`` reads
        directly as the fraction of the embedding's energy that carries class
        information.
        """
        if self.pooling == "max_every_other":
            projected_frames = decoded.strided_frames(2) @ self._projection
            signal = projected_frames.max(axis=0)
        else:
            pooled = self._pool_frames(decoded)
            signal = pooled @ self._projection
        signal = self._unit(signal)
        noise = self._unit(self._clip_noise(decoded))
        q = self.signal_quality
        embedding = q * signal + (1.0 - q) * noise
        norm = np.linalg.norm(embedding)
        if norm > 0:
            embedding = embedding / norm * np.sqrt(self.dim)
        return embedding.astype(np.float64)

    def extract_batch(self, decoded_clips: Iterable[DecodedClip]) -> np.ndarray:
        """Embed several clips; row ``i`` is bit-identical to ``extract(clips[i])``.

        The batch is vectorized across clips, never across a sum: every
        clip's projection stays its own vector-matrix product (a stacked
        ``(n, 1, k) @ (k, d)`` matmul runs the same BLAS gemv per row that a
        1-D ``(k,) @ (k, d)`` does, while one ``(n, k) @ (k, d)`` gemm rounds
        differently), norms are per-row dot products, and frame means reduce
        clips of equal length together.  Noise streams are seeded in one pass.
        Batches smaller than ``MIN_VECTORIZED_BATCH`` run :meth:`extract`
        per clip.
        """
        decoded = list(decoded_clips)
        if len(decoded) < MIN_VECTORIZED_BATCH:
            return super().extract_batch(decoded)
        signal = _unit_rows(self._signal_rows(decoded))
        clips = [d.clip for d in decoded]
        key = [
            self._noise_seed,
            np.fromiter((c.vid for c in clips), dtype=np.int64, count=len(clips)),
            milliseconds([c.start for c in clips]),
            milliseconds([c.end for c in clips]),
        ]
        latent_noise = standard_normal_rows(key, self.latent_dim)
        noise = _unit_rows(_row_products(latent_noise, self._distractor_basis))
        q = self.signal_quality
        embedding = q * signal + (1.0 - q) * noise
        norms = _row_norms(embedding)
        scaled = norms > 0
        embedding[scaled] = embedding[scaled] / norms[scaled, None] * np.sqrt(self.dim)
        return embedding

    def _signal_rows(self, decoded: list[DecodedClip]) -> np.ndarray:
        """Projected, pooled frames: ``(n, dim)``, one row per clip."""
        if self.pooling == "middle":
            return _row_products(np.stack([d.middle_frame() for d in decoded]), self._projection)
        signal = np.empty((len(decoded), self.dim))
        counts = np.fromiter((d.num_frames for d in decoded), dtype=np.int64, count=len(decoded))
        for count in np.unique(counts).tolist():
            rows = np.flatnonzero(counts == count)
            frames = np.stack([decoded[i].frames for i in rows.tolist()])
            if self.pooling == "max_every_other":
                signal[rows] = np.matmul(frames[:, ::2], self._projection).max(axis=1)
            else:
                signal[rows] = _row_products(frames.mean(axis=1), self._projection)
        return signal


def _row_products(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows[i] @ matrix`` for each row, each as its own gemv (bit-exact)."""
    return np.matmul(rows[:, None, :], matrix)[:, 0, :]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows[i])`` for each row: the same per-row BLAS dot."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`SimulatedExtractor._unit`, in place; zero rows stay as they are."""
    norms = _row_norms(rows)[:, None]
    return np.divide(rows, norms, out=rows, where=norms > 0)


class ConcatExtractor(FeatureExtractor):
    """Concatenation of several extractors (the paper's "Concat" baseline)."""

    def __init__(self, extractors: Sequence[FeatureExtractor], name: str = "concat") -> None:
        if not extractors:
            raise ValueError("ConcatExtractor needs at least one extractor")
        total_dim = sum(extractor.dim for extractor in extractors)
        throughput = 1.0 / sum(1.0 / extractor.spec.throughput for extractor in extractors)
        spec = ExtractorSpec(
            name=name,
            input_type="video",
            architecture="Concatenation",
            pretrained_on="Mixed",
            dim=total_dim,
            throughput=throughput,
        )
        super().__init__(spec)
        self._extractors = list(extractors)

    @property
    def components(self) -> list[FeatureExtractor]:
        return list(self._extractors)

    def load_weights(self) -> None:
        for extractor in self._extractors:
            extractor.load_weights()

    def extract(self, decoded: DecodedClip) -> np.ndarray:
        return np.concatenate([extractor.extract(decoded) for extractor in self._extractors])

    def extract_batch(self, decoded_clips: Iterable[DecodedClip]) -> np.ndarray:
        decoded = list(decoded_clips)
        return np.concatenate(
            [extractor.extract_batch(decoded) for extractor in self._extractors], axis=1
        )


def build_extractor(
    name: str,
    latent_dim: int,
    signal_quality: float,
    seed: int = 0,
) -> SimulatedExtractor:
    """Build one simulated extractor by Table 3 name."""
    if name not in PRETRAINED_SPECS:
        raise ValueError(f"unknown pretrained extractor {name!r}; known: {sorted(PRETRAINED_SPECS)}")
    return SimulatedExtractor(
        spec=PRETRAINED_SPECS[name],
        latent_dim=latent_dim,
        signal_quality=signal_quality,
        pooling=_POOLING_BY_NAME[name],
        seed=seed,
    )


def build_default_registry(
    latent_dim: int,
    quality_by_extractor: Mapping[str, float],
    seed: int = 0,
    include_concat: bool = False,
) -> ExtractorRegistry:
    """Build the paper's five-extractor candidate pool (optionally plus Concat).

    Args:
        latent_dim: Dimensionality of the corpus latent space.
        quality_by_extractor: Per-extractor signal quality for the target
            dataset; missing names default to 0.5, and "random" is forced to 0.
        seed: Seed for all projection matrices.
        include_concat: Also register a concatenation of the five extractors.

    No weights are drawn here: each extractor draws its own on first use
    (see :meth:`SimulatedExtractor.load_weights`).
    """
    extractors: list[FeatureExtractor] = []
    for name in DEFAULT_EXTRACTOR_NAMES:
        quality = 0.0 if name == "random" else float(quality_by_extractor.get(name, 0.5))
        extractors.append(build_extractor(name, latent_dim, quality, seed=seed))
    registry = ExtractorRegistry(extractors)
    if include_concat:
        registry.register(ConcatExtractor(extractors))
    return registry
