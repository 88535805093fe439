"""Tests for the priority task scheduler."""

import pytest

from repro.exceptions import SchedulerError
from repro.scheduler.clock import SimulatedClock
from repro.scheduler.scheduler import TaskScheduler
from repro.scheduler.tasks import Task, TaskKind


def make_scheduler():
    scheduler = TaskScheduler(SimulatedClock())
    scheduler.begin_iteration(1)
    return scheduler


class TestForeground:
    def test_foreground_advances_clock_and_latency(self):
        scheduler = make_scheduler()
        scheduler.run_foreground(Task(TaskKind.SAMPLE_SELECTION, 0.5))
        scheduler.run_foreground(Task(TaskKind.MODEL_INFERENCE, 0.25))
        assert scheduler.clock.now == pytest.approx(0.75)
        record = scheduler.current_iteration
        assert record.visible_latency == pytest.approx(0.75)
        assert record.visible_by_kind[TaskKind.SAMPLE_SELECTION] == pytest.approx(0.5)

    def test_foreground_runs_action(self):
        scheduler = make_scheduler()
        seen = []
        scheduler.run_foreground(Task(TaskKind.MODEL_TRAINING, 1.0, action=seen.append))
        assert seen == [pytest.approx(1.0)]

    def test_current_iteration_requires_begin(self):
        scheduler = TaskScheduler()
        with pytest.raises(SchedulerError):
            scheduler.current_iteration

    def test_foreground_before_begin_opens_own_record(self):
        scheduler = TaskScheduler()
        scheduler.run_foreground(Task(TaskKind.VECTOR_SEARCH, 0.5))
        assert scheduler.current_iteration.visible_latency == pytest.approx(0.5)
        assert scheduler.cumulative_visible_latency() == pytest.approx(0.5)

    def test_closed_iteration_record_is_frozen(self):
        scheduler = make_scheduler()
        scheduler.run_foreground(Task(TaskKind.SAMPLE_SELECTION, 1.0))
        closed = scheduler.current_iteration
        scheduler.close_iteration()
        scheduler.run_foreground(Task(TaskKind.VECTOR_SEARCH, 0.25))
        # The reported record did not change; an overflow record absorbed the
        # late work under the same iteration number.
        assert closed.visible_latency == pytest.approx(1.0)
        assert TaskKind.VECTOR_SEARCH not in closed.visible_by_kind
        overflow = scheduler.current_iteration
        assert overflow is not closed
        assert overflow.iteration == closed.iteration
        assert scheduler.cumulative_visible_latency() == pytest.approx(1.25)

    def test_background_window_respects_closed_record(self):
        scheduler = make_scheduler()
        scheduler.run_foreground(Task(TaskKind.SAMPLE_SELECTION, 1.0))
        closed = scheduler.current_iteration
        scheduler.close_iteration()
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 2.0))
        scheduler.run_background_window(5.0)
        assert closed.background_time_used == pytest.approx(0.0)
        assert scheduler.current_iteration is not closed
        assert scheduler.current_iteration.background_time_used == pytest.approx(2.0)

    def test_drain_respects_closed_record(self):
        scheduler = make_scheduler()
        scheduler.run_foreground(Task(TaskKind.SAMPLE_SELECTION, 1.0))
        closed = scheduler.current_iteration
        scheduler.close_iteration()
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 2.0))
        scheduler.drain()
        assert closed.visible_latency == pytest.approx(1.0)
        assert scheduler.current_iteration is not closed
        assert scheduler.cumulative_visible_latency() == pytest.approx(3.0)


class TestBackgroundWindow:
    def test_tasks_run_in_priority_order(self):
        scheduler = make_scheduler()
        order = []
        scheduler.submit(Task(TaskKind.EAGER_FEATURE_EXTRACTION, 1.0, action=lambda t: order.append("eager")))
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0, action=lambda t: order.append("train")))
        scheduler.submit(Task(TaskKind.FEATURE_EVALUATION, 1.0, action=lambda t: order.append("eval")))
        completed = scheduler.run_background_window(10.0)
        assert order == ["train", "eval", "eager"]
        assert len(completed) == 3
        assert scheduler.clock.now == pytest.approx(10.0)

    def test_unfinished_task_resumes_next_window(self):
        scheduler = make_scheduler()
        finished = []
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 5.0, action=finished.append))
        scheduler.run_background_window(2.0)
        assert finished == []
        assert scheduler.has_pending(TaskKind.MODEL_TRAINING)
        scheduler.begin_iteration(2)
        scheduler.run_background_window(4.0)
        assert len(finished) == 1
        # Completed after 3 more seconds of the second window (2 + 3 = 5).
        assert finished[0] == pytest.approx(5.0)

    def test_availability_time_respected(self):
        scheduler = make_scheduler()
        completions = []
        scheduler.submit(
            Task(TaskKind.MODEL_TRAINING, 1.0, action=completions.append), available_at=4.0
        )
        scheduler.run_background_window(10.0)
        assert completions == [pytest.approx(5.0)]

    def test_window_accounts_idle_time(self):
        scheduler = make_scheduler()
        scheduler.run_background_window(3.0)
        record = scheduler.current_iteration
        assert record.background_idle_time == pytest.approx(3.0)
        assert record.background_time_used == 0.0

    def test_idle_task_factory_fills_empty_queue(self):
        scheduler = make_scheduler()
        created = []

        def factory():
            if len(created) >= 3:
                return None
            task = Task(TaskKind.EAGER_FEATURE_EXTRACTION, 1.0, action=lambda t: None)
            created.append(task)
            return task

        scheduler.idle_task_factory = factory
        scheduler.run_background_window(10.0)
        assert len(created) == 3
        assert scheduler.current_iteration.background_time_used == pytest.approx(3.0)

    def test_negative_window_rejected(self):
        with pytest.raises(SchedulerError):
            make_scheduler().run_background_window(-1.0)

    def test_pending_counts(self):
        scheduler = make_scheduler()
        assert not scheduler.has_pending()
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0))
        assert scheduler.has_pending(TaskKind.MODEL_TRAINING)
        assert not scheduler.has_pending(TaskKind.FEATURE_EVALUATION)
        assert len(scheduler.drain()) == 1
        assert not scheduler.has_pending()


class TestDrain:
    def test_drain_runs_everything_and_counts_as_visible(self):
        scheduler = make_scheduler()
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 2.0))
        scheduler.submit(Task(TaskKind.FEATURE_EVALUATION, 1.0))
        completed = scheduler.drain()
        assert len(completed) == 2
        assert scheduler.current_iteration.visible_latency == pytest.approx(3.0)
        assert not scheduler.has_pending()

    def test_drain_respects_time_limit(self):
        scheduler = make_scheduler()
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 5.0))
        completed = scheduler.drain(time_limit=2.0)
        assert completed == []
        assert scheduler.has_pending()

    def test_drain_skips_future_available_tasks_by_advancing(self):
        scheduler = make_scheduler()
        done = []
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0, action=done.append), available_at=3.0)
        scheduler.drain()
        assert done == [pytest.approx(4.0)]


class TestAccounting:
    def test_cumulative_latency_across_iterations(self):
        scheduler = TaskScheduler()
        for iteration in range(1, 4):
            scheduler.begin_iteration(iteration)
            scheduler.run_foreground(Task(TaskKind.MODEL_INFERENCE, 1.0))
        assert scheduler.cumulative_visible_latency() == pytest.approx(3.0)
        assert len(scheduler.iteration_records()) == 3

    def test_completed_tasks_recorded_in_order(self):
        scheduler = make_scheduler()
        scheduler.run_foreground(Task(TaskKind.SAMPLE_SELECTION, 0.1, description="select"))
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 0.5, description="train"))
        scheduler.run_background_window(1.0)
        kinds = [record.kind for record in scheduler.completed_tasks()]
        assert kinds == [TaskKind.SAMPLE_SELECTION, TaskKind.MODEL_TRAINING]
