"""Tests for SLO accounting: per-iteration verdicts, served-request roll-ups."""

import pytest

from repro.scheduler.scheduler import IterationLatency
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import (
    SLOAccountant,
    format_request_class,
    record_request,
    request_summary,
)


def _record(iteration, visible, by_kind=None):
    record = IterationLatency(iteration=iteration)
    for kind, duration in (by_kind or {"sample_selection": visible}).items():
        record.add_visible(kind, duration)
    return record


class TestSLOAccountant:
    def test_within_budget(self):
        accountant = SLOAccountant(budget_s=10.0)
        verdict = accountant.record(_record(1, 4.0))
        assert not verdict.violated
        assert verdict.overshoot == 0.0
        assert accountant.violations == 0

    def test_violation_and_overshoot(self):
        accountant = SLOAccountant(budget_s=10.0)
        verdict = accountant.record(_record(1, 12.5))
        assert verdict.violated
        assert verdict.overshoot == pytest.approx(2.5)
        assert accountant.violations == 1

    def test_no_budget_records_without_verdicts(self):
        accountant = SLOAccountant(budget_s=None)
        verdict = accountant.record(_record(1, 100.0))
        assert not verdict.violated
        assert verdict.budget is None
        assert accountant.iterations == 1

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            SLOAccountant(budget_s=0.0)
        with pytest.raises(ValueError, match="must be > 0"):
            SLOAccountant(budget_s=-1.0)

    def test_worst_tracks_highest_latency(self):
        accountant = SLOAccountant(budget_s=5.0)
        for iteration, visible in ((1, 3.0), (2, 9.0), (3, 6.0)):
            accountant.record(_record(iteration, visible))
        worst = accountant.worst()
        assert worst.iteration == 2
        assert worst.visible_latency == 9.0

    def test_summary_shape(self):
        accountant = SLOAccountant(budget_s=5.0)
        accountant.record(_record(1, 3.0, {"sample_selection": 1.0, "model_training": 2.0}))
        accountant.record(_record(2, 7.0))
        summary = accountant.summary()
        assert summary["budget_s"] == 5.0
        assert summary["iterations"] == 2
        assert summary["violations"] == 1
        assert summary["total_visible_s"] == pytest.approx(10.0)
        assert summary["worst"]["iteration"] == 2
        assert len(summary["per_iteration"]) == 2
        record = summary["per_iteration"][0]
        assert record["type"] == "slo"
        assert record["visible_by_kind"] == {"sample_selection": 1.0, "model_training": 2.0}

    def test_empty_summary(self):
        summary = SLOAccountant(budget_s=1.0).summary()
        assert summary["iterations"] == 0
        assert summary["worst"] is None


class TestRequestRollUp:
    def test_record_then_summary_reads_the_registry(self):
        metrics = MetricsRegistry()
        for latency in (0.010, 0.020, 0.030):
            record_request(metrics, "explore", latency, budget_s=0.025)
        record_request(metrics, "explore", 0.040, budget_s=0.025, outcome="deadline")
        record_request(metrics, "label", 0.005, outcome="error")
        summary = request_summary(metrics, ("explore", "label", "search"), {"explore": 0.025})
        explore = summary["classes"]["explore"]
        assert (explore["count"], explore["violations"], explore["budget_s"]) == (4, 2, 0.025)
        assert explore["outcomes"] == {"ok": 3, "deadline": 1}
        assert explore["max_s"] == 0.040
        assert explore["mean_s"] == pytest.approx(0.025)
        assert 0.010 <= explore["p50_s"] <= explore["p99_s"] <= explore["p999_s"] <= 0.040
        assert summary["classes"]["label"]["outcomes"] == {"error": 1}
        assert summary["classes"]["label"]["violations"] == 0  # unbudgeted
        assert summary["classes"]["search"]["count"] == 0  # listed though unseen
        assert (summary["requests"], summary["violations"]) == (5, 2)
        assert metrics.counter("serving.requests.explore").value == 4
        assert metrics.counter("serving.slo_violations.explore").value == 2

    def test_unknown_outcome_is_rejected(self):
        # The roll-up lists only the known outcomes, so nothing else may be
        # recorded.
        with pytest.raises(ValueError, match="outcome"):
            record_request(MetricsRegistry(), "explore", 0.01, outcome="timeout")

    def test_format_names_class_counts_and_budget(self):
        metrics = MetricsRegistry()
        record_request(metrics, "search", 0.002, budget_s=0.5)
        rows = request_summary(metrics, ("search", "predict"), {"search": 0.5})["classes"]
        assert format_request_class(rows["search"]) == (
            "search: n=1 p50=2.0ms p99=2.0ms p999=2.0ms violations=0 (budget 0.5s)"
        )
        assert format_request_class(rows["predict"]).endswith("violations=0 (budget none)")

