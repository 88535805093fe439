"""Span propagation and metrics through the scheduler.

The property under test: every ``task:<kind>`` span — however many windows
after its creation the task runs — parents to the span that was active when
the task was *created*.  Tasks capture their trace context in
``Task.__post_init__`` and the scheduler re-activates it through
``telemetry.task_scope``, so background work nests under the iteration that
enqueued it.
"""

import random

import pytest

from repro import telemetry
from repro.scheduler.scheduler import TaskScheduler
from repro.scheduler.tasks import Task, TaskKind


@pytest.fixture
def sink():
    sink = telemetry.MemorySink()
    telemetry.start_run(extra_sinks=(sink,))
    return sink


def task_spans(sink):
    return [record for record in sink.spans if record["name"].startswith("task:")]


class TestTaskPropagation:
    def test_foreground_task_nests_under_active_span(self, sink):
        scheduler = TaskScheduler()
        scheduler.begin_iteration(1)
        with telemetry.span("iteration", "session") as span:
            scheduler.run_foreground(Task(kind=TaskKind.SAMPLE_SELECTION, duration=1.0))
        (record,) = task_spans(sink)
        assert record["name"] == "task:sample_selection"
        assert record["cat"] == "scheduler"
        assert record["parent"] == span.span_id
        assert record["attrs"]["phase"] == "foreground"

    def test_window_slices_carry_phase_and_remaining(self, sink):
        scheduler = TaskScheduler()
        scheduler.begin_iteration(1)
        scheduler.submit(Task(kind=TaskKind.MODEL_TRAINING, duration=2.0))
        scheduler.run_background_window(5.0)
        (record,) = task_spans(sink)
        assert record["attrs"]["phase"] == "window"
        assert record["attrs"]["remaining"] == 2.0

    def test_task_spans_parent_to_enqueueing_iteration(self, sink):
        """Property test: random task batches over several iterations; every
        execution slice of every task must parent to its iteration's span."""
        rng = random.Random(7)
        scheduler = TaskScheduler()
        expected = {}  # task_id -> span id of the iteration that enqueued it
        for iteration in range(1, 5):
            scheduler.begin_iteration(iteration)
            span = telemetry.start_span("iteration", "session", iteration=iteration)
            for _ in range(rng.randint(1, 4)):
                task = Task(kind=TaskKind.FEATURE_EXTRACTION, duration=rng.uniform(0.2, 1.5))
                expected[task.task_id] = span.span_id
                scheduler.submit(task)
            # Short windows: long tasks are preempted and finish only in a
            # LATER iteration's window, under a different active span.
            scheduler.run_background_window(1.0)
            scheduler.close_iteration()
            span.end()
        scheduler.drain()

        executed = task_spans(sink)
        assert len(executed) > len(expected)  # some tasks ran in several slices
        for record in executed:
            task_id = record["attrs"]["task_id"]
            assert record["parent"] == expected[task_id], (
                f"task {task_id} slice ({record['attrs']['phase']}) parented to "
                f"{record['parent']}, expected iteration span {expected[task_id]}"
            )

    def test_context_does_not_leak_between_tasks(self, sink):
        """A task created with no active span executes with a None parent,
        even right after a context-carrying task ran."""
        scheduler = TaskScheduler()
        scheduler.begin_iteration(1)
        with telemetry.span("iteration", "session"):
            scheduler.submit(Task(kind=TaskKind.FEATURE_EXTRACTION, duration=0.3))
        orphan = Task(kind=TaskKind.FEATURE_EXTRACTION, duration=0.3)
        scheduler.submit(orphan)
        scheduler.run_background_window(2.0)
        orphan_spans = [
            record for record in task_spans(sink) if record["attrs"]["task_id"] == orphan.task_id
        ]
        assert orphan_spans
        assert all(record["parent"] is None for record in orphan_spans)


class TestSchedulerMetrics:
    """Every charge the scheduler makes to a latency record is mirrored in
    the run's metrics, keyed by the task kind that incurred it."""

    def test_window_busy_and_idle_seconds_recorded(self, sink):
        scheduler = TaskScheduler()
        scheduler.begin_iteration(1)
        scheduler.submit(Task(kind=TaskKind.MODEL_TRAINING, duration=2.0))
        scheduler.submit(Task(kind=TaskKind.FEATURE_EVALUATION, duration=1.0))
        scheduler.run_background_window(5.0)
        training = telemetry.histogram("scheduler.background_seconds.model_training")
        evaluation = telemetry.histogram("scheduler.background_seconds.feature_evaluation")
        assert (training.count, training.sum) == (1, 2.0)
        assert (evaluation.count, evaluation.sum) == (1, 1.0)
        assert telemetry.counter("scheduler.idle_seconds_total").value == pytest.approx(2.0)

    def test_drained_and_foreground_seconds_recorded_as_visible(self, sink):
        scheduler = TaskScheduler()
        scheduler.begin_iteration(1)
        scheduler.run_foreground(Task(kind=TaskKind.SAMPLE_SELECTION, duration=0.5))
        scheduler.submit(Task(kind=TaskKind.MODEL_TRAINING, duration=2.0))
        scheduler.drain()
        selection = telemetry.histogram("scheduler.visible_seconds.sample_selection")
        training = telemetry.histogram("scheduler.visible_seconds.model_training")
        assert (selection.count, selection.sum) == (1, 0.5)
        assert (training.count, training.sum) == (1, 2.0)
        assert telemetry.histogram("scheduler.background_seconds.model_training").count == 0
