"""Tests for EWMA smoothing and the rising-bandit feature selector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FeatureSelectionConfig
from repro.exceptions import FeatureSelectionError
from repro.alm.bandit import RisingBanditSelector
from repro.alm.smoothing import EWMASmoother, ewma


class TestEWMAFunction:
    def test_constant_series_unchanged(self):
        np.testing.assert_allclose(ewma([3.0, 3.0, 3.0], span=5), [3.0, 3.0, 3.0])

    def test_first_value_passthrough(self):
        assert ewma([7.0], span=3)[0] == 7.0

    def test_smoothing_reduces_oscillation(self):
        raw = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        smoothed = ewma(raw, span=5)
        assert np.std(smoothed[2:]) < np.std(raw[2:])

    def test_empty_series(self):
        assert ewma([], span=3).size == 0

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            ewma([1.0], span=0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    def test_smoothed_values_within_observed_range(self, values):
        smoothed = ewma(values, span=5)
        assert smoothed.min() >= min(values) - 1e-9
        assert smoothed.max() <= max(values) + 1e-9


class TestEWMASmoother:
    def test_matches_functional_form(self):
        values = [0.1, 0.4, 0.2, 0.8, 0.6]
        smoother = EWMASmoother(span=5)
        for value in values:
            smoother.update(value)
        np.testing.assert_allclose(smoother.history, ewma(values, span=5))

    def test_current_before_updates(self):
        assert EWMASmoother(span=3).current == 0.0

    def test_update_many(self):
        smoother = EWMASmoother(span=3)
        final = smoother.update_many([1.0, 2.0, 3.0])
        assert final == smoother.current
        assert len(smoother) == 3

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            EWMASmoother(0)


def config(horizon=50, warmup=3, span=3, window=3):
    return FeatureSelectionConfig(
        smoothing_span=span,
        slope_window=window,
        horizon=horizon,
        warmup_iterations=warmup,
    )


class TestRisingBandit:
    def test_requires_candidates(self):
        with pytest.raises(FeatureSelectionError):
            RisingBanditSelector([])

    def test_initial_state(self):
        bandit = RisingBanditSelector(["a", "b", "c"], config())
        assert bandit.candidates() == ["a", "b", "c"]
        assert bandit.active_arms() == ["a", "b", "c"]
        assert not bandit.converged
        assert bandit.selected is None
        assert bandit.current_best() == "a"

    def test_unknown_arm_history_raises(self):
        bandit = RisingBanditSelector(["a"], config())
        with pytest.raises(FeatureSelectionError):
            bandit.history("z")

    def test_current_best_tracks_highest_smoothed_score(self):
        bandit = RisingBanditSelector(["a", "b"], config())
        bandit.update({"a": 0.2, "b": 0.6})
        assert bandit.current_best() == "b"
        bandit.update({"a": 0.9, "b": 0.1})
        bandit.update({"a": 0.9, "b": 0.1})
        bandit.update({"a": 0.9, "b": 0.1})
        assert bandit.current_best() == "a"

    def test_no_elimination_during_warmup(self):
        bandit = RisingBanditSelector(["good", "bad"], config(warmup=5))
        for __ in range(5):
            eliminated = bandit.update({"good": 0.9, "bad": 0.05})
            assert eliminated == []
        assert bandit.active_arms() == ["good", "bad"]

    def test_dominated_arm_eliminated_after_warmup(self):
        bandit = RisingBanditSelector(["good", "bad"], config(horizon=10, warmup=3))
        eliminated_any = []
        for step in range(12):
            eliminated_any += bandit.update({"good": 0.8 + 0.01 * step, "bad": 0.05})
        assert "bad" in eliminated_any
        assert bandit.converged
        assert bandit.selected == "good"

    def test_flat_bad_arm_with_rising_good_arm(self):
        bandit = RisingBanditSelector(["rising", "flat"], config(horizon=15, warmup=3))
        for step in range(15):
            bandit.update({"rising": min(0.9, 0.2 + 0.05 * step), "flat": 0.1})
        assert bandit.selected == "rising"

    def test_similar_arms_not_eliminated(self):
        bandit = RisingBanditSelector(["a", "b"], config(horizon=20, warmup=3))
        for __ in range(10):
            bandit.update({"a": 0.52, "b": 0.50})
        # Upper bounds stay above the best lower bound when arms are close.
        assert len(bandit.active_arms()) >= 1

    def test_elimination_never_removes_last_arm(self):
        bandit = RisingBanditSelector(["a", "b", "c"], config(horizon=5, warmup=1))
        for __ in range(10):
            bandit.update({name: 0.0 for name in bandit.active_arms()})
        assert len(bandit.active_arms()) >= 1

    def test_eliminated_arm_scores_ignored(self):
        bandit = RisingBanditSelector(["good", "bad"], config(horizon=8, warmup=2))
        for __ in range(10):
            bandit.update({"good": 0.9, "bad": 0.01})
        history_length = len(bandit.history("bad"))
        bandit.update({"good": 0.9, "bad": 0.99})
        assert len(bandit.history("bad")) == history_length

    def test_bound_trace_collected(self):
        bandit = RisingBanditSelector(["a", "b"], config())
        bandit.update({"a": 0.3, "b": 0.4})
        bandit.update({"a": 0.35, "b": 0.45})
        trace = bandit.bound_trace()
        assert {snapshot.arm for snapshot in trace} == {"a", "b"}
        assert all(snapshot.upper_bound >= snapshot.lower_bound - 1e-12 for snapshot in trace)

    def test_elimination_steps_recorded(self):
        bandit = RisingBanditSelector(["good", "bad"], config(horizon=8, warmup=2))
        steps = {}
        for __ in range(10):
            for name in bandit.update({"good": 0.9, "bad": 0.01}):
                steps[name] = bandit.step
        assert bandit.active_arms() == ["good"]
        assert set(steps) == {"bad"} and steps["bad"] > 2

    def test_larger_horizon_eliminates_more_slowly(self):
        def convergence_step(horizon):
            bandit = RisingBanditSelector(["good", "ok"], config(horizon=horizon, warmup=2))
            for step in range(60):
                bandit.update({"good": 0.7 + 0.002 * step, "ok": 0.4 + 0.002 * step})
                if bandit.converged:
                    return step + 1
            return 61

        assert convergence_step(10) <= convergence_step(200)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=30))
    def test_active_arms_always_nonempty(self, scores):
        bandit = RisingBanditSelector(["a", "b", "c"], config(horizon=10, warmup=2))
        for value in scores:
            bandit.update({"a": value, "b": value * 0.5, "c": value * 0.25})
        assert len(bandit.active_arms()) >= 1
        assert bandit.current_best() in bandit.candidates()
