"""Priority Task Scheduler.

The scheduler owns one compute resource pool.  Foreground tasks — the work
that must finish before ``Explore`` can return — run immediately and add to
user-visible latency.  Background tasks are queued with priorities and
executed during the window in which the user is busy labeling; tasks that do
not finish within a window keep their remaining work and resume in the next
window, which is how a long model-training task becomes ready only several
iterations later (the staleness effect the paper calls delta).

The VE-full strategy additionally installs an *idle-task factory*: whenever
the background queue is empty and window time remains, the scheduler asks the
factory for a new lowest-priority task (eager feature extraction over a batch
of unlabeled videos).

Execution is discrete-event: a task's cost advances the scheduler's
:class:`~repro.scheduler.clock.SimulatedClock` instead of occupying real
time, so a session with hours of simulated extraction runs in milliseconds
and is deterministic on any hardware.  The accounting order is pinned: every
float addition happens in the same sequence, which the golden digest test
(``tests/integration/test_golden_digest.py``) checks.

See ``docs/SCHEDULER.md`` for the full task model and window-accounting
walkthrough.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from typing import Callable

from .. import telemetry
from ..exceptions import SchedulerError
from .clock import SimulatedClock
from .tasks import CompletedTask, Task

__all__ = ["IterationLatency", "TaskScheduler"]

logger = logging.getLogger(__name__)


@dataclass
class IterationLatency:
    """Latency accounting for one Explore iteration, in simulated seconds.

    ``background_time_used`` and ``background_idle_time`` split the labeling
    windows that ran while the record was open: the scheduler has one
    resource, so each window's busy and idle time sum to its length.
    """

    iteration: int
    visible_latency: float = 0.0
    background_time_used: float = 0.0
    background_idle_time: float = 0.0
    visible_by_kind: dict[str, float] = field(default_factory=dict)

    def add_visible(self, kind: str, duration: float) -> None:
        """Charge ``duration`` of user-visible time against one task kind."""
        self.visible_latency += duration
        self.visible_by_kind[kind] = self.visible_by_kind.get(kind, 0.0) + duration


class TaskScheduler:
    """Priority scheduler running tasks on one simulated resource."""

    def __init__(self, clock: SimulatedClock | None = None) -> None:
        """Build a scheduler.

        Args:
            clock: Simulated clock to advance; defaults to a fresh one
                starting at zero (tests pass one to share it).
        """
        self.clock = clock if clock is not None else SimulatedClock()
        self._queue: list[tuple[int, int, Task]] = []
        self._completed: list[CompletedTask] = []
        self._iterations: list[IterationLatency] = []
        self._current: IterationLatency | None = None
        self._finalised = False
        # Running total of visible latency over *closed* records (every
        # record except the one currently open).  Charges only ever land on
        # the open record, so folding a record in exactly once — when the
        # next one opens — keeps cumulative_visible_latency() O(1) while
        # staying bit-identical to the recomputed left-to-right sum.
        self._closed_visible_total = 0.0
        self.idle_task_factory: Callable[[], Task | None] | None = None
        #: Cooperative cancellation hook.  When set, the scheduler calls it
        #: at every dispatch boundary — foreground entry and each background
        #: pop — and the callable may raise to abort further dispatch (e.g.
        #: a serving deadline).  Raising never loses queued tasks: the gate
        #: fires before any task leaves the queue.
        self.preemption_gate: Callable[[], None] | None = None

    # ------------------------------------------------------------- iterations
    def begin_iteration(self, iteration: int) -> IterationLatency:
        """Start latency accounting for one Explore iteration."""
        if self._current is not None:
            self._closed_visible_total += self._current.visible_latency
        self._current = IterationLatency(iteration=iteration)
        self._iterations.append(self._current)
        self._finalised = False
        return self._current

    def close_iteration(self) -> None:
        """Freeze the current record once its summary has been reported.

        Foreground work arriving after the close (a ``watch`` or ``search``
        between Explore calls) opens a fresh overflow record carrying the same
        iteration number, so already-reported records never change — and
        window time (busy or idle) is only ever charged to the record that
        was open while the window ran, never counted again into a reopened
        one.
        """
        self._finalised = True

    def _ensure_open_record(self) -> None:
        """Open an overflow record when none is open or the last one is frozen.

        Work arriving before the first ``begin_iteration`` or after a
        ``close_iteration`` opens its own accounting record instead of
        mutating a missing or already-reported one.
        """
        if self._current is None or self._finalised:
            self.begin_iteration(self._current.iteration if self._current is not None else 0)

    @property
    def current_iteration(self) -> IterationLatency:
        """The latency record currently accumulating charges."""
        if self._current is None:
            raise SchedulerError("begin_iteration() has not been called")
        return self._current

    def iteration_records(self) -> list[IterationLatency]:
        """Latency accounting for every iteration so far."""
        return list(self._iterations)

    def cumulative_visible_latency(self) -> float:
        """Total user-visible latency across all iterations.

        O(1): closed records are pre-summed into a running total as each new
        record opens, and only the open record's latency is added on top.
        The float-addition order matches a fresh left-to-right ``sum()`` over
        the records exactly (a regression test pins the equality), so the
        optimisation cannot shift experiment results by even one ulp.
        """
        total = self._closed_visible_total
        if self._current is not None:
            total += self._current.visible_latency
        return total

    def completed_tasks(self) -> list[CompletedTask]:
        """Every completed task in completion order."""
        return list(self._completed)

    # ------------------------------------------------------------- foreground
    def run_foreground(self, task: Task) -> CompletedTask:
        """Run a task synchronously; its duration becomes visible latency."""
        if self.preemption_gate is not None:
            self.preemption_gate()
        self._ensure_open_record()
        with telemetry.task_scope(task, "foreground"):
            task.work(task.remaining)
            self.clock.advance(task.duration)
            record = task.complete(self.clock.now)
        self._log_completion(record)
        self._record_visible(task.kind, task.duration)
        return record

    # ------------------------------------------------------------- background
    def submit(self, task: Task, available_at: float | None = None) -> None:
        """Queue a background task (optionally only available from a given time)."""
        if available_at is not None:
            task.available_at = float(available_at)
        heapq.heappush(self._queue, (task.priority, task.task_id, task))

    def has_pending(self, kind: str | None = None) -> bool:
        """True when background tasks (optionally of one kind) are still queued."""
        if kind is None:
            return bool(self._queue)
        return any(task.kind == kind for __, __, task in self._queue)

    def _pop_available(self, now: float) -> Task | None:
        """Pop the highest-priority task whose availability time has passed."""
        if self.preemption_gate is not None:
            # Gate before touching the heap: a raising gate must not strand
            # popped-but-undispatched tasks outside the queue.
            self.preemption_gate()
        deferred: list[tuple[int, int, Task]] = []
        chosen: Task | None = None
        while self._queue:
            priority, task_id, task = heapq.heappop(self._queue)
            if task.available_at <= now + 1e-9:
                chosen = task
                break
            deferred.append((priority, task_id, task))
        for entry in deferred:
            heapq.heappush(self._queue, entry)
        return chosen

    def _next_available_time(self) -> float | None:
        """Earliest availability time among queued tasks (None when empty)."""
        if not self._queue:
            return None
        return min(task.available_at for __, __, task in self._queue)

    def _requeue(self, task: Task) -> None:
        """Put a preempted task back on the queue with its remaining work."""
        heapq.heappush(self._queue, (task.priority, task.task_id, task))

    def run_background_window(self, duration: float) -> list[CompletedTask]:
        """Execute queued background work for one labeling window.

        The window models the time the user spends labeling (B x T_user).
        Unfinished tasks keep their remaining work for future windows.  When
        the queue is empty and an idle-task factory is installed, the factory
        supplies additional lowest-priority work (eager feature extraction).
        Between deferred tasks the resource idles; the task still running
        when the window closes is preempted with its remaining work kept.
        """
        if duration < 0:
            raise SchedulerError(f"window duration must be >= 0, got {duration}")
        self._ensure_open_record()
        window_start = self.clock.now
        window_end = window_start + duration
        completed: list[CompletedTask] = []

        while self.clock.now < window_end - 1e-9:
            task = self._pop_available(self.clock.now)
            if task is None:
                next_time = self._next_available_time()
                if next_time is not None and next_time < window_end:
                    # Idle until the next deferred task becomes available.
                    idle = next_time - self.clock.now
                    if self.idle_task_factory is not None:
                        task = self.idle_task_factory()
                        if task is None:
                            self._record_idle(idle)
                            self.clock.advance_to(next_time)
                            continue
                    else:
                        self._record_idle(idle)
                        self.clock.advance_to(next_time)
                        continue
                else:
                    if self.idle_task_factory is not None:
                        task = self.idle_task_factory()
                    if task is None:
                        self._record_idle(window_end - self.clock.now)
                        break

            available = window_end - self.clock.now
            with telemetry.task_scope(task, "window"):
                used = task.work(available)
                self.clock.advance(used)
                self._record_background(used, task.kind)
                if task.finished:
                    record = task.complete(self.clock.now)
                    self._log_completion(record)
                    completed.append(record)
                else:
                    # Out of window time: requeue with remaining work preserved.
                    self._requeue(task)
                    break

        self.clock.advance_to(window_end)
        return completed

    def drain(self, time_limit: float | None = None) -> list[CompletedTask]:
        """Run all queued background work to completion (or until ``time_limit`` seconds).

        Used by the serial strategy, which finishes every task before
        returning control to the user, so the time counts as visible latency.
        ``time_limit`` is a budget of consumed task cost, which on the single
        resource equals elapsed simulated time.
        """
        if self._queue:
            self._ensure_open_record()
        completed: list[CompletedTask] = []
        budget = float("inf") if time_limit is None else float(time_limit)
        while self._queue and budget > 1e-9:
            task = self._pop_available(self.clock.now)
            if task is None:
                next_time = self._next_available_time()
                if next_time is None:
                    break
                self.clock.advance_to(next_time)
                continue
            with telemetry.task_scope(task, "drain"):
                used = task.work(min(task.remaining, budget))
                budget -= used
                self.clock.advance(used)
                self._record_visible(task.kind, used)
                if task.finished:
                    record = task.complete(self.clock.now)
                    self._log_completion(record)
                    completed.append(record)
                else:
                    self._requeue(task)
                    break
        return completed

    # -------------------------------------------------------------- accounting
    # The three helpers below are the only mutation points for latency
    # records; every charge goes through them so each unit of window time
    # lands in exactly one bucket of exactly one record.
    def _record_background(self, duration: float, kind: str | None = None) -> None:
        """Charge background busy time to the open record.

        ``kind`` attributes the charge to a task kind in the telemetry
        metrics (the executed task's kind); the latency record
        itself keeps its historical shape.
        """
        if self._current is not None:
            self._current.background_time_used += duration
        if telemetry.enabled():
            telemetry.histogram(
                "scheduler.background_seconds." + (kind if kind is not None else "unknown")
            ).observe(duration)

    def _record_idle(self, duration: float) -> None:
        """Charge unused window capacity to the open record."""
        if self._current is not None and duration > 0:
            self._current.background_idle_time += duration
            if telemetry.enabled():
                telemetry.counter("scheduler.idle_seconds_total").add(duration)

    def _record_visible(self, kind: str, duration: float) -> None:
        """Charge user-visible time (drained background work) to the open record."""
        if self._current is not None:
            self._current.add_visible(kind, duration)
        if telemetry.enabled():
            telemetry.histogram("scheduler.visible_seconds." + kind).observe(duration)

    def _log_completion(self, record: CompletedTask) -> None:
        """Append one finished task to the completion log."""
        self._completed.append(record)
