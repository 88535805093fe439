"""Exact nearest-neighbour search over feature vectors.

One mechanism serves every caller, as in the paper: :class:`ExactScan`, a
chunked norm-expansion scan of rows the caller owns.  The shared distance
kernel lives in :mod:`repro.index.distances` and is also imported by the
ALM's k-means, so every distance in the system is computed the same way.
"""

from .distances import pairwise_sq_distances, squared_norms
from .exact import ExactScan, VectorIndex

__all__ = [
    "ExactScan",
    "VectorIndex",
    "pairwise_sq_distances",
    "squared_norms",
]
