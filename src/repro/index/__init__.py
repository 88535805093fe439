"""Pluggable vector-index subsystem (sub-linear nearest-neighbour search).

Two backends behind one :class:`VectorIndex` API:

* :class:`ExactIndex` — norm-expansion brute force; the correctness oracle.
* :class:`IVFFlatIndex` — k-means coarse quantizer + inverted lists with an
  ``nprobe`` knob; incremental adds with periodic re-training.

All pure numpy, batched, and deterministic under a seeded RNG.  The shared
distance kernel lives in :mod:`repro.index.distances` and is also imported by
the ALM's k-means and coreset acquisition, so every distance in the system is
computed the same way.
"""

from .base import (
    VectorIndex,
    build_index,
    canonical_backend,
    index_backends,
    register_backend,
)
from .distances import pairwise_sq_distances, squared_norms
from .exact import ExactIndex
from .ivf_flat import IVFFlatIndex

__all__ = [
    "VectorIndex",
    "ExactIndex",
    "IVFFlatIndex",
    "build_index",
    "canonical_backend",
    "index_backends",
    "register_backend",
    "pairwise_sq_distances",
    "squared_norms",
]
