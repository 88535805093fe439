"""Pluggable vector-index subsystem (sub-linear nearest-neighbour search).

Two backends behind one :class:`VectorIndex` API:

* :class:`ExactIndex` — norm-expansion brute force; the correctness oracle.
* :class:`IVFFlatIndex` — k-means coarse quantizer + inverted lists with an
  ``nprobe`` knob; incremental adds with periodic re-training.

All pure numpy, batched, and deterministic under a seeded RNG.
:func:`make_index` builds the backend an :class:`~repro.config.IndexConfig`
names.  The shared distance kernel lives in :mod:`repro.index.distances` and
is also imported by the ALM's k-means and coreset acquisition, so every
distance in the system is computed the same way.
"""

from ..config import IndexConfig
from .base import VectorIndex
from .distances import pairwise_sq_distances, squared_norms
from .exact import ExactIndex
from .ivf_flat import IVFFlatIndex

__all__ = [
    "VectorIndex",
    "ExactIndex",
    "IVFFlatIndex",
    "make_index",
    "pairwise_sq_distances",
    "squared_norms",
]


def make_index(config: IndexConfig, seed: int = 0) -> VectorIndex:
    """A fresh, empty index of the backend ``config`` names, seeded with ``seed``."""
    if config.backend == "ivf-flat":
        return IVFFlatIndex(
            nlist=config.nlist,
            nprobe=config.nprobe,
            retrain_factor=config.retrain_factor,
            seed=seed,
        )
    return ExactIndex(seed=seed)
