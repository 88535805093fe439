"""SLO accounting: per-iteration budget verdicts and served-request roll-ups.

The paper's north-star metric is user-visible latency per Explore iteration
(T_s); everything else is background work hidden behind the labeling window.
:class:`SLOAccountant` folds the scheduler's ``IterationLatency`` records
into a declared budget (``TelemetryConfig.visible_latency_slo_s``): each
finished iteration produces an :class:`IterationSLO` verdict, violations are
counted, and the worst offender is tracked for the run report.

The accountant is duck-typed over the latency record (``iteration``,
``visible_latency``, ``background_time_used``, ``visible_by_kind``) so the
telemetry package never imports the scheduler — avoiding an import cycle,
since the scheduler itself is instrumented through the telemetry facade.

Served requests keep no ledger of their own: :func:`record_request` writes
each one into a :class:`~repro.telemetry.metrics.MetricsRegistry` (a bounded
latency histogram plus request, outcome and violation counters per request
class), :func:`request_summary` reads the per-class roll-up back out of the
same registry, and :func:`format_request_class` renders one class as a line.
The server, ``repro-vocal serve`` and the serving benchmark share all three.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .metrics import MetricsRegistry

__all__ = [
    "IterationSLO",
    "OUTCOMES",
    "SLOAccountant",
    "record_request",
    "request_summary",
    "format_request_class",
]


@dataclass(frozen=True)
class IterationSLO:
    """Budget verdict for one Explore iteration."""

    #: Iteration number the verdict belongs to.
    iteration: int
    #: User-visible latency charged to the iteration (cost-model seconds).
    visible_latency: float
    #: Declared budget, or None when no SLO was configured.
    budget: float | None
    #: True when a budget exists and the iteration exceeded it.
    violated: bool
    #: Seconds over budget (0.0 when within budget or unbudgeted).
    overshoot: float
    #: Visible latency split by task kind.
    visible_by_kind: dict[str, float] = field(default_factory=dict)

    def to_record(self) -> dict:
        """JSON-serialisable form written to the trace sinks."""
        return {
            "type": "slo",
            "iteration": self.iteration,
            "visible_latency_s": self.visible_latency,
            "budget_s": self.budget,
            "violated": self.violated,
            "overshoot_s": self.overshoot,
            "visible_by_kind": dict(self.visible_by_kind),
        }


class SLOAccountant:
    """Accumulates per-iteration budget verdicts for one telemetry run."""

    def __init__(self, budget_s: float | None = None) -> None:
        """Create an accountant; ``budget_s`` is the per-iteration visible
        budget in cost-model seconds (None records latency without verdicts).
        """
        if budget_s is not None and budget_s <= 0:
            raise ValueError(f"visible-latency budget must be > 0, got {budget_s}")
        self.budget_s = budget_s
        self._results: list[IterationSLO] = []
        self._lock = threading.Lock()

    def record(self, latency_record) -> IterationSLO:
        """Fold one scheduler ``IterationLatency`` into the accounting."""
        visible = float(latency_record.visible_latency)
        overshoot = 0.0
        violated = False
        if self.budget_s is not None and visible > self.budget_s:
            violated = True
            overshoot = visible - self.budget_s
        verdict = IterationSLO(
            iteration=int(latency_record.iteration),
            visible_latency=visible,
            budget=self.budget_s,
            violated=violated,
            overshoot=overshoot,
            visible_by_kind=dict(latency_record.visible_by_kind),
        )
        with self._lock:
            self._results.append(verdict)
        return verdict

    # ------------------------------------------------------------------ queries
    def results(self) -> list[IterationSLO]:
        """Every verdict recorded so far, in iteration order."""
        with self._lock:
            return list(self._results)

    @property
    def iterations(self) -> int:
        """Iterations accounted so far."""
        return len(self._results)

    @property
    def violations(self) -> int:
        """Iterations that exceeded the budget."""
        return sum(1 for verdict in self._results if verdict.violated)

    def worst(self) -> IterationSLO | None:
        """The iteration with the highest visible latency (None when empty)."""
        with self._lock:
            if not self._results:
                return None
            return max(self._results, key=lambda verdict: verdict.visible_latency)

    def summary(self) -> dict:
        """JSON-serialisable roll-up for the run report and metrics file."""
        results = self.results()
        worst = self.worst()
        return {
            "budget_s": self.budget_s,
            "iterations": len(results),
            "violations": sum(1 for verdict in results if verdict.violated),
            "total_visible_s": sum(verdict.visible_latency for verdict in results),
            "worst": worst.to_record() if worst is not None else None,
            "per_iteration": [verdict.to_record() for verdict in results],
        }


#: How a served request can end, in the order the roll-up lists them.
OUTCOMES = ("ok", "deadline", "quarantine", "error")


def record_request(
    metrics: MetricsRegistry,
    request_class: str,
    latency_s: float,
    budget_s: float | None = None,
    outcome: str = "ok",
) -> None:
    """Record one served request in ``metrics``.

    Observes ``latency_s`` in the class's ``serving.latency_s.<class>``
    histogram and bumps ``serving.requests.<class>``,
    ``serving.outcomes.<class>.<outcome>`` and, when a budget exists and the
    request exceeded it, ``serving.slo_violations.<class>``.  ``outcome``
    tags how the request ended, one of :data:`OUTCOMES`.
    """
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown request outcome {outcome!r}")
    metrics.histogram(f"serving.latency_s.{request_class}").observe(latency_s)
    metrics.counter(f"serving.requests.{request_class}").add(1)
    metrics.counter(f"serving.outcomes.{request_class}.{outcome}").add(1)
    if budget_s is not None and latency_s > budget_s:
        metrics.counter(f"serving.slo_violations.{request_class}").add(1)


def request_summary(
    metrics: MetricsRegistry,
    classes: Iterable[str],
    budgets_s: Mapping[str, float],
) -> dict:
    """Per-class roll-up of what :func:`record_request` wrote to ``metrics``.

    Every class in ``classes`` is listed, zeroed when it saw no request.
    Quantiles come from the fixed-bucket histogram, so they are interpolated
    inside one bucket and clamped to the observed ``[min, max]``.
    """
    def count(name: str) -> int:
        return int(metrics.counter(name).value)

    rows = {}
    for request_class in classes:
        latency = metrics.histogram(f"serving.latency_s.{request_class}")
        summary = latency.summary()
        outcomes = {
            outcome: count(f"serving.outcomes.{request_class}.{outcome}") for outcome in OUTCOMES
        }
        rows[request_class] = {
            "request_class": request_class,
            "count": count(f"serving.requests.{request_class}"),
            "budget_s": budgets_s.get(request_class),
            "violations": count(f"serving.slo_violations.{request_class}"),
            "outcomes": {outcome: n for outcome, n in outcomes.items() if n},
            "p50_s": summary["p50"],
            "p99_s": summary["p99"],
            "p999_s": latency.quantile(0.999),
            "max_s": summary["max"],
            "mean_s": summary["sum"] / summary["count"] if summary["count"] else 0.0,
        }
    return {
        "requests": sum(row["count"] for row in rows.values()),
        "violations": sum(row["violations"] for row in rows.values()),
        "classes": rows,
    }


def format_request_class(row: Mapping) -> str:
    """One human-readable line for a :func:`request_summary` class row."""
    budget = "none" if row["budget_s"] is None else f"{row['budget_s']:g}s"
    return (
        f"{row['request_class']}: n={row['count']} p50={row['p50_s'] * 1e3:.1f}ms "
        f"p99={row['p99_s'] * 1e3:.1f}ms p999={row['p999_s'] * 1e3:.1f}ms "
        f"violations={row['violations']} (budget {budget})"
    )
