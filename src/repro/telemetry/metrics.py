"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Instruments are named, process-local, and thread-safe.  Histograms use fixed
bucket boundaries (a log-spaced default suited to both sub-millisecond fsyncs
and multi-hundred-second simulated latencies) and derive p50/p95/p99 from the
bucket counts by linear interpolation, so recording an observation is O(1)
and needs no sample retention.

All instruments also exist as shared null variants
(:data:`NULL_COUNTER` etc.) that the telemetry facade returns while disabled,
keeping instrumented call sites allocation-free on the fast path.
"""

from __future__ import annotations

import bisect
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "DEFAULT_BUCKETS",
    "COUNT_BUCKETS",
]

#: Default histogram boundaries (seconds): log-spaced from 10 microseconds to
#: 10,000 simulated seconds, 10 buckets per decade (91 bounds, 3 significant
#: digits).  Each bucket spans a factor of 1.26, fine enough for the serving
#: tier's per-class p50/p99 to come from the histogram alone.
DEFAULT_BUCKETS = tuple(float(f"{10 ** (tenth / 10):.3g}") for tenth in range(-50, 41))

#: Boundaries for count-valued histograms (e.g. index candidates per search).
COUNT_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 50000.0, 100000.0,
)


class Counter:
    """Monotonically increasing sum (events, seconds, items)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        """Create a counter starting at zero."""
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value


class Gauge:
    """Last-written value (queue depth, cache size)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        """Create a gauge starting at zero."""
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """Most recently set value."""
        return self._value


class Histogram:
    """Fixed-bucket distribution with O(1) observe and interpolated quantiles."""

    __slots__ = ("name", "bounds", "_counts", "_overflow", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Create a histogram over ``buckets`` (ascending upper bounds)."""
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        self._counts = [0] * len(self.bounds)
        self._overflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            else:
                self._overflow += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) from the bucket counts.

        Interpolates linearly inside the containing bucket and clamps the
        estimate to the observed ``[min, max]`` range, so tiny sample counts
        cannot report a p99 beyond anything actually seen.
        """
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            cumulative = 0
            estimate = self._max
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= target and bucket_count:
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    upper = self.bounds[index]
                    fraction = (target - (cumulative - bucket_count)) / bucket_count
                    estimate = lower + (upper - lower) * fraction
                    break
            return min(max(estimate, self._min), self._max)

    def summary(self) -> dict:
        """Count, sum, min/max, and p50/p95/p99 as a JSON-friendly dict."""
        if self._count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named instrument store; get-or-create access, one snapshot call."""

    def __init__(self) -> None:
        """Create an empty registry."""
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        instrument = self._get(name, lambda: Counter(name))
        if not isinstance(instrument, Counter):
            raise TypeError(f"metric {name!r} already registered as {type(instrument).__name__}")
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        instrument = self._get(name, lambda: Gauge(name))
        if not isinstance(instrument, Gauge):
            raise TypeError(f"metric {name!r} already registered as {type(instrument).__name__}")
        return instrument

    def histogram(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram called ``name`` (buckets fixed at creation)."""
        instrument = self._get(name, lambda: Histogram(name, buckets))
        if not isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} already registered as {type(instrument).__name__}")
        return instrument

    def snapshot(self) -> dict:
        """All instruments as a JSON-serialisable dict, sorted by name."""
        with self._lock:
            instruments = dict(self._instruments)
        counters = {}
        gauges = {}
        histograms = {}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class _NullCounter:
    """No-op counter returned while telemetry is disabled."""

    __slots__ = ()
    value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class _NullGauge:
    """No-op gauge returned while telemetry is disabled."""

    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the value."""


class _NullHistogram:
    """No-op histogram returned while telemetry is disabled."""

    __slots__ = ()
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def quantile(self, q: float) -> float:
        """Always 0.0."""
        return 0.0

    def summary(self) -> dict:
        """Empty summary."""
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


#: Shared no-op instruments used whenever telemetry is disabled.
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
