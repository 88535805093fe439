"""Rising-bandit feature-extractor selection (Section 3.2).

Each candidate feature extractor is an arm.  At every labeling iteration the
ALM re-estimates every remaining arm's model quality (3-fold macro F1 on the
labels collected so far), smooths the estimates with an EWMA, and derives:

* a lower bound ``l_f`` — the current smoothed value (quality is assumed to
  rise over time), and
* an upper bound ``u_f = l_f + omega_f * (T - t)`` where the growth rate
  ``omega_f`` is measured over a window of ``C`` steps.

An arm is eliminated when its upper bound falls below another arm's lower
bound.  Elimination only starts after a warm-up period because early estimates
are extremely noisy.  Unlike the original algorithm, every remaining arm is
updated at every step (new labels benefit every feature's model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..config import FeatureSelectionConfig
from ..exceptions import FeatureSelectionError
from .smoothing import EWMASmoother

__all__ = ["ArmState", "BanditSnapshot", "RisingBanditSelector"]


@dataclass
class ArmState:
    """Bookkeeping for one candidate feature extractor."""

    name: str
    smoother: EWMASmoother
    raw_history: list[float] = field(default_factory=list)
    eliminated_at: int | None = None

    @property
    def smoothed_history(self) -> list[float]:
        return self.smoother.history

    @property
    def active(self) -> bool:
        return self.eliminated_at is None


@dataclass(frozen=True)
class BanditSnapshot:
    """Bounds computed for one arm at one step (used for Figure 6)."""

    step: int
    arm: str
    lower_bound: float
    upper_bound: float
    active: bool


class RisingBanditSelector:
    """Eliminates candidate features until one of the best remains."""

    def __init__(
        self,
        candidates: Sequence[str],
        config: FeatureSelectionConfig | None = None,
    ) -> None:
        if not candidates:
            raise FeatureSelectionError("the bandit needs at least one candidate feature")
        self.config = config if config is not None else FeatureSelectionConfig()
        self._arms: dict[str, ArmState] = {
            name: ArmState(name=name, smoother=EWMASmoother(self.config.smoothing_span))
            for name in dict.fromkeys(candidates)
        }
        self._step = 0
        self._bound_trace: list[BanditSnapshot] = []

    # ---------------------------------------------------------------- queries
    @property
    def step(self) -> int:
        """Number of completed updates."""
        return self._step

    def candidates(self) -> list[str]:
        """All arms, eliminated or not, in registration order."""
        return list(self._arms)

    def active_arms(self) -> list[str]:
        """Arms still under consideration."""
        return [name for name, arm in self._arms.items() if arm.active]

    @property
    def converged(self) -> bool:
        """True when a single arm remains."""
        return len(self.active_arms()) == 1

    @property
    def selected(self) -> str | None:
        """The selected feature once converged, else None."""
        active = self.active_arms()
        return active[0] if len(active) == 1 else None

    def current_best(self) -> str:
        """Arm with the highest smoothed quality among the active arms.

        Before any update, returns the first registered arm.
        """
        active = self.active_arms()
        if not active:
            raise FeatureSelectionError("all arms have been eliminated")
        best = max(active, key=lambda name: self._arms[name].smoother.current)
        return best

    def history(self, arm: str) -> list[float]:
        """Raw quality history for one arm."""
        self._require_arm(arm)
        return list(self._arms[arm].raw_history)

    def smoothed_history(self, arm: str) -> list[float]:
        """Smoothed quality history for one arm."""
        self._require_arm(arm)
        return self._arms[arm].smoothed_history

    def bound_trace(self) -> list[BanditSnapshot]:
        """Every (step, arm, lower, upper) computed so far (Figure 6 data)."""
        return list(self._bound_trace)

    def _require_arm(self, arm: str) -> None:
        if arm not in self._arms:
            raise FeatureSelectionError(f"unknown arm {arm!r}; known arms: {list(self._arms)}")

    # ---------------------------------------------------------------- updates
    def _bounds(self, arm: ArmState) -> tuple[float, float]:
        smoothed = arm.smoothed_history
        lower = smoothed[-1] if smoothed else 0.0
        window = self.config.slope_window
        if len(smoothed) > window:
            slope = (smoothed[-1] - smoothed[-1 - window]) / window
        elif len(smoothed) >= 2:
            slope = (smoothed[-1] - smoothed[0]) / max(1, len(smoothed) - 1)
        else:
            slope = 0.0
        slope = max(0.0, slope)
        remaining = max(0, self.config.horizon - self._step)
        upper = lower + slope * remaining
        return lower, upper

    def update(self, scores: Mapping[str, float]) -> list[str]:
        """Record one step of quality scores and eliminate dominated arms.

        Args:
            scores: Quality estimate per arm; only active arms need entries,
                and entries for eliminated arms are ignored.

        Returns:
            The names of the arms eliminated at this step.
        """
        self._step += 1
        for name, arm in self._arms.items():
            if not arm.active or name not in scores:
                continue
            value = float(scores[name])
            arm.raw_history.append(value)
            arm.smoother.update(value)

        bounds = {}
        for name, arm in self._arms.items():
            if not arm.active:
                continue
            lower, upper = self._bounds(arm)
            bounds[name] = (lower, upper)
            self._bound_trace.append(
                BanditSnapshot(step=self._step, arm=name, lower_bound=lower, upper_bound=upper, active=True)
            )

        eliminated: list[str] = []
        if self._step <= self.config.warmup_iterations or len(bounds) <= 1:
            return eliminated
        best_lower = max(lower for lower, __ in bounds.values())
        for name, (lower, upper) in bounds.items():
            if len(self.active_arms()) - len(eliminated) <= 1:
                break
            if upper < best_lower and lower < best_lower:
                self._arms[name].eliminated_at = self._step
                eliminated.append(name)
        return eliminated
