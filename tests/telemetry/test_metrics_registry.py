"""Tests for the metrics registry: counters, gauges, histograms."""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.telemetry.metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("events")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_thread_safety(self):
        counter = Counter("events")

        def bump():
            for _ in range(1000):
                counter.add(1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2.0


class TestHistogram:
    def test_count_sum_min_max(self):
        histogram = Histogram("latency")
        for value in (0.001, 0.01, 0.1):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(0.111)
        assert summary["min"] == 0.001
        assert summary["max"] == 0.1

    def test_quantiles_ordered_and_clamped(self):
        histogram = Histogram("latency")
        for value in [0.001] * 90 + [0.5] * 10:
            histogram.observe(value)
        p50 = histogram.quantile(0.50)
        p95 = histogram.quantile(0.95)
        p99 = histogram.quantile(0.99)
        assert p50 <= p95 <= p99
        # Clamped to the observed range: p99 cannot exceed the true max.
        assert 0.001 <= p50 <= 0.5
        assert p99 <= 0.5

    def test_median_roughly_central(self):
        histogram = Histogram("latency")
        for _ in range(100):
            histogram.observe(0.02)
        # All mass in one bucket: the median lands inside it.
        assert 0.01 <= histogram.quantile(0.5) <= 0.025

    def test_overflow_beyond_last_bucket(self):
        histogram = Histogram("counts", buckets=COUNT_BUCKETS)
        histogram.observe(1e9)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["max"] == 1e9

    def test_empty_summary(self):
        assert Histogram("empty").summary()["count"] == 0
        assert Histogram("empty").quantile(0.99) == 0.0

    def test_default_buckets_are_ten_per_decade(self):
        assert len(DEFAULT_BUCKETS) == 91
        assert (DEFAULT_BUCKETS[0], DEFAULT_BUCKETS[10], DEFAULT_BUCKETS[-1]) == (1e-05, 1e-04, 1e04)
        ratios = np.diff(np.log10(DEFAULT_BUCKETS))
        assert np.all(ratios > 0) and np.allclose(ratios, 0.1, atol=5e-3)  # 3-digit rounding

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("median_s", [0.002, 0.07])
    def test_quantiles_track_exact_quantiles_on_lognormal_latencies(self, seed, median_s):
        # Serving-like latencies (lognormal, sigma 0.5).  One bucket spans a
        # factor of 1.26, so an interpolated quantile can miss by up to one
        # bucket; on these samples p50 and p99 stay within 10%.
        samples = np.random.default_rng(seed).lognormal(np.log(median_s), 0.5, 400)
        histogram = Histogram("serving.latency_s.explore")
        for value in samples.tolist():
            histogram.observe(value)
        for q in (0.50, 0.99):
            assert histogram.quantile(q) == pytest.approx(np.quantile(samples, q), rel=0.10)

    def test_memory_is_flat_across_a_million_observations(self):
        histogram = MetricsRegistry().histogram("serving.latency_s.explore")
        values = np.random.default_rng(0).lognormal(np.log(0.002), 1.0, 1000).tolist()
        tracemalloc.start()
        try:
            for value in values:
                histogram.observe(value)
            baseline = tracemalloc.get_traced_memory()[0]
            for __ in range(999):
                for value in values:
                    histogram.observe(value)
            grown = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert histogram.count == 1_000_000
        assert grown < 4096  # bytes; a sample list would hold ~8 MB


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("x")

    def test_snapshot_groups_and_sorts(self):
        registry = MetricsRegistry()
        registry.counter("b.count").add(2)
        registry.counter("a.count").add(1)
        registry.gauge("depth").set(7)
        registry.histogram("latency").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.count", "b.count"]
        assert snapshot["gauges"]["depth"] == 7.0
        assert snapshot["histograms"]["latency"]["count"] == 1


class TestNullInstruments:
    def test_nulls_are_inert(self):
        NULL_COUNTER.add(5)
        NULL_GAUGE.set(5)
        NULL_HISTOGRAM.observe(5)
        assert NULL_COUNTER.value == 0.0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.summary()["count"] == 0
