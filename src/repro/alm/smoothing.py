"""Exponentially weighted moving-average smoothing.

The rising-bandit feature selector smooths each feature's noisy quality
estimates with an EWMA whose span ``w`` gives ``alpha = 2 / (w + 1)``
(Section 3.2.4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ewma", "EWMASmoother"]


def ewma(values: Sequence[float], span: int) -> np.ndarray:
    """EWMA of ``values`` with the given span.

    Uses the standard adjusted formulation, i.e. the same values pandas'
    ``Series.ewm(span=...).mean()`` would produce.
    """
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span}")
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        return data
    alpha = 2.0 / (span + 1.0)
    smoothed = np.empty_like(data)
    numerator = 0.0
    denominator = 0.0
    for i, value in enumerate(data):
        numerator = value + (1.0 - alpha) * numerator
        denominator = 1.0 + (1.0 - alpha) * denominator
        smoothed[i] = numerator / denominator
    return smoothed


class EWMASmoother:
    """Stateful EWMA over a stream of observations."""

    def __init__(self, span: int) -> None:
        if span < 1:
            raise ValueError(f"span must be >= 1, got {span}")
        self.span = int(span)
        self._alpha = 2.0 / (span + 1.0)
        self._numerator = 0.0
        self._denominator = 0.0
        self._history: list[float] = []

    def update(self, value: float) -> float:
        """Add one observation and return the current smoothed value."""
        self._numerator = float(value) + (1.0 - self._alpha) * self._numerator
        self._denominator = 1.0 + (1.0 - self._alpha) * self._denominator
        smoothed = self._numerator / self._denominator
        self._history.append(smoothed)
        return smoothed

    @property
    def current(self) -> float:
        """Latest smoothed value (0.0 before any observation)."""
        return self._history[-1] if self._history else 0.0

    @property
    def history(self) -> list[float]:
        """Smoothed value after each observation."""
        return list(self._history)

    def __len__(self) -> int:
        return len(self._history)
