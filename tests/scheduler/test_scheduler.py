"""Tests for the priority task scheduler."""

import random

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

    def test_shared_clock_is_the_schedulers_clock(self):
        clock = SimulatedClock(start=5.0)
        scheduler = TaskScheduler(clock=clock)
        assert scheduler.clock is clock
        scheduler.run_foreground(Task(TaskKind.SAMPLE_SELECTION, 1.0))
        assert clock.now == pytest.approx(6.0)


class TestIdleAccountingRegression:
    """Regression tests for idle-time accounting around ``close_iteration``.

    The scenario: the idle-task factory returns ``None`` mid-window while a
    deferred task exists.  Every second of the window must land in exactly
    one bucket (busy or idle) of exactly one record — idle spans must never
    be double-counted, and records frozen by ``close_iteration`` must never
    absorb later window time.
    """

    def test_factory_none_mid_window_counts_idle_exactly_once(self):
        scheduler = TaskScheduler()
        scheduler.begin_iteration(1)
        factory_calls = []
        scheduler.idle_task_factory = lambda: factory_calls.append(1) or None
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 2.0), available_at=4.0)
        scheduler.run_background_window(10.0)
        record = scheduler.current_iteration
        # Idle 0->4 while waiting, busy 4->6, idle 6->10: never double-counted.
        assert record.background_idle_time == pytest.approx(8.0)
        assert record.background_time_used == pytest.approx(2.0)
        assert record.background_idle_time + record.background_time_used == pytest.approx(10.0)
        assert len(factory_calls) == 2

    def test_window_after_close_never_mutates_frozen_record(self):
        scheduler = TaskScheduler()
        scheduler.begin_iteration(1)
        scheduler.idle_task_factory = lambda: None
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 2.0), available_at=4.0)
        scheduler.run_background_window(3.0)
        frozen = scheduler.current_iteration
        assert frozen.background_idle_time == pytest.approx(3.0)
        scheduler.close_iteration()

        # Factory still returns None mid-window; the deferred task completes.
        scheduler.run_background_window(4.0)
        overflow = scheduler.current_iteration
        assert overflow is not frozen
        assert overflow.iteration == frozen.iteration
        # The frozen record keeps exactly its pre-close accounting...
        assert frozen.background_idle_time == pytest.approx(3.0)
        assert frozen.background_time_used == pytest.approx(0.0)
        # ...and the overflow record accounts the second window exactly once.
        assert overflow.background_idle_time == pytest.approx(2.0)
        assert overflow.background_time_used == pytest.approx(2.0)
        total_idle = sum(r.background_idle_time for r in scheduler.iteration_records())
        total_busy = sum(r.background_time_used for r in scheduler.iteration_records())
        assert total_idle + total_busy == pytest.approx(7.0)


class TestWindowEdges:
    def test_pause_and_play_across_three_windows(self):
        scheduler = TaskScheduler()
        done = []
        task = Task(TaskKind.MODEL_TRAINING, 5.0, action=done.append)
        scheduler.submit(task)
        for iteration, expected_remaining in ((1, 3.0), (2, 1.0)):
            scheduler.begin_iteration(iteration)
            assert scheduler.run_background_window(2.0) == []
            assert task.remaining == pytest.approx(expected_remaining)
        scheduler.begin_iteration(3)
        (record,) = scheduler.run_background_window(2.0)
        assert record.completed_at == pytest.approx(5.0) == done[0]
        busy = [r.background_time_used for r in scheduler.iteration_records()]
        idle = [r.background_idle_time for r in scheduler.iteration_records()]
        assert busy == [pytest.approx(2.0), pytest.approx(2.0), pytest.approx(1.0)]
        assert idle == [0.0, 0.0, pytest.approx(1.0)]

    def test_idle_factory_fills_gap_before_deferred_task(self):
        scheduler = make_scheduler()
        order = []
        created = []

        def factory():
            if len(created) >= 2:
                return None
            created.append(Task(
                TaskKind.EAGER_FEATURE_EXTRACTION, 1.0, action=lambda t: order.append("eager")
            ))
            return created[-1]

        scheduler.idle_task_factory = factory
        scheduler.submit(
            Task(TaskKind.MODEL_TRAINING, 1.0, action=lambda t: order.append("train")),
            available_at=4.0,
        )
        scheduler.run_background_window(10.0)
        # Eager work 0->2, idle 2->4, training 4->5, idle 5->10.
        assert order == ["eager", "eager", "train"]
        record = scheduler.current_iteration
        assert record.background_time_used == pytest.approx(3.0)
        assert record.background_idle_time == pytest.approx(7.0)

    def test_zero_length_window_runs_nothing(self):
        scheduler = make_scheduler()
        task = Task(TaskKind.MODEL_TRAINING, 1.0)
        scheduler.submit(task)
        assert scheduler.run_background_window(0.0) == []
        assert task.remaining == 1.0
        assert scheduler.clock.now == 0.0
        record = scheduler.current_iteration
        assert record.background_time_used == 0.0
        assert record.background_idle_time == 0.0


class TestDrainEdges:
    def test_drain_time_limit_resumes_partial_task(self):
        scheduler = make_scheduler()
        done = []
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 5.0, action=done.append))
        assert scheduler.drain(time_limit=2.0) == []
        assert scheduler.clock.now == pytest.approx(2.0)
        (record,) = scheduler.drain()
        assert done == [pytest.approx(5.0)]
        assert record.completed_at == pytest.approx(5.0)
        assert scheduler.current_iteration.visible_latency == pytest.approx(5.0)

    def test_drain_charges_visible_time_not_background_time(self):
        scheduler = make_scheduler()
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0))
        scheduler.submit(Task(TaskKind.FEATURE_EVALUATION, 0.5))
        scheduler.drain()
        record = scheduler.current_iteration
        assert record.visible_by_kind == {
            TaskKind.MODEL_TRAINING: pytest.approx(1.0),
            TaskKind.FEATURE_EVALUATION: pytest.approx(0.5),
        }
        assert record.background_time_used == 0.0
        assert record.background_idle_time == 0.0

    def test_drain_of_empty_queue_opens_no_record(self):
        scheduler = make_scheduler()
        scheduler.close_iteration()
        assert scheduler.drain() == []
        assert len(scheduler.iteration_records()) == 1


class TestActionErrors:
    @staticmethod
    def boom(at_time):
        raise RuntimeError("action failed")

    def test_failing_window_action_propagates_without_losing_siblings(self):
        scheduler = make_scheduler()
        survivor_done = []
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 0.3, action=self.boom))
        scheduler.submit(
            Task(TaskKind.EAGER_FEATURE_EXTRACTION, 5.0, action=survivor_done.append)
        )
        with pytest.raises(RuntimeError, match="action failed"):
            scheduler.run_background_window(2.0)
        # The sibling was never dispatched, so it is still queued, untouched.
        assert scheduler.has_pending(TaskKind.EAGER_FEATURE_EXTRACTION)
        assert survivor_done == []
        # The scheduler is still usable after the error.
        completed = scheduler.run_background_window(6.0)
        assert [record.kind for record in completed] == [TaskKind.EAGER_FEATURE_EXTRACTION]

    def test_failing_drain_action_keeps_the_rest_queued(self):
        scheduler = make_scheduler()
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0, action=self.boom))
        scheduler.submit(Task(TaskKind.FEATURE_EVALUATION, 1.0, description="after"))
        with pytest.raises(RuntimeError, match="action failed"):
            scheduler.drain()
        assert scheduler.has_pending(TaskKind.FEATURE_EVALUATION)
        (record,) = scheduler.drain()
        assert record.description == "after"

    def test_failing_foreground_action_leaves_queue_alone(self):
        scheduler = make_scheduler()
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0))
        with pytest.raises(RuntimeError, match="action failed"):
            scheduler.run_foreground(Task(TaskKind.SAMPLE_SELECTION, 0.5, action=self.boom))
        assert scheduler.completed_tasks() == []
        assert scheduler.has_pending(TaskKind.MODEL_TRAINING)


class TestPreemptionGate:
    @staticmethod
    def deadline():
        raise TimeoutError("deadline passed")

    def test_gate_stops_foreground_before_it_runs(self):
        scheduler = make_scheduler()
        ran = []
        scheduler.preemption_gate = self.deadline
        with pytest.raises(TimeoutError):
            scheduler.run_foreground(Task(TaskKind.SAMPLE_SELECTION, 1.0, action=ran.append))
        assert ran == []
        assert scheduler.clock.now == 0.0
        assert scheduler.current_iteration.visible_latency == 0.0

    def test_gate_raising_mid_window_keeps_queued_tasks(self):
        scheduler = make_scheduler()
        calls = []

        def gate():
            calls.append(1)
            if len(calls) > 1:
                self.deadline()

        scheduler.preemption_gate = gate
        scheduler.submit(Task(TaskKind.MODEL_TRAINING, 1.0, description="first"))
        scheduler.submit(Task(TaskKind.FEATURE_EVALUATION, 1.0, description="second"))
        with pytest.raises(TimeoutError):
            scheduler.run_background_window(10.0)
        assert [r.description for r in scheduler.completed_tasks()] == ["first"]
        assert scheduler.has_pending(TaskKind.FEATURE_EVALUATION)
        scheduler.preemption_gate = None
        (record,) = scheduler.run_background_window(10.0)
        assert record.description == "second"


def seeded_workload(seed: int, deferred: bool = False) -> list[Task]:
    """A reproducible mixed workload; ``deferred`` staggers availability."""
    rng = random.Random(seed)
    kinds = [
        TaskKind.MODEL_TRAINING,
        TaskKind.FEATURE_EVALUATION,
        TaskKind.FEATURE_EXTRACTION,
        TaskKind.EAGER_FEATURE_EXTRACTION,
    ]
    return [
        Task(
            kind=rng.choice(kinds),
            duration=round(rng.uniform(0.2, 1.5), 3),
            description=f"task-{seed}-{index}",
            available_at=round(rng.uniform(0.0, 6.0), 2) if deferred else 0.0,
        )
        for index in range(12)
    ]


class TestWindowSplitting:
    """Property tests over seeded workloads: how window time is cut up must
    not change what runs when, and every window second lands in one bucket."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_split_windows_match_one_unbroken_drain(self, seed):
        # Several small windows force preemptions and requeues mid-workload.
        split = TaskScheduler()
        split.begin_iteration(1)
        for task in seeded_workload(seed):
            split.submit(task)
        for window in (2.5, 2.5, 2.5):
            split.run_background_window(window)
        split.drain()

        unbroken = TaskScheduler()
        unbroken.begin_iteration(1)
        for task in seeded_workload(seed):
            unbroken.submit(task)
        unbroken.drain()

        expected = unbroken.completed_tasks()
        assert len(expected) == 12
        actual = split.completed_tasks()
        assert [r.description for r in actual] == [r.description for r in expected]
        assert [r.completed_at for r in actual] == pytest.approx(
            [r.completed_at for r in expected]
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_each_window_splits_into_busy_and_idle(self, seed):
        scheduler = TaskScheduler()
        workload = seeded_workload(seed, deferred=True)
        for task in workload:
            scheduler.submit(task, available_at=task.available_at)
        windows = [1.7, 0.4, 3.1, 2.2, 5.0]
        for iteration, window in enumerate(windows, start=1):
            scheduler.begin_iteration(iteration)
            scheduler.run_background_window(window)
        scheduler.begin_iteration(len(windows) + 1)
        scheduler.drain()
        records = scheduler.iteration_records()
        for record, window in zip(records, windows):
            assert record.background_time_used + record.background_idle_time == pytest.approx(window)
            assert record.visible_latency == 0.0
        busy = sum(r.background_time_used for r in records) + records[-1].visible_latency
        assert busy == pytest.approx(sum(task.duration for task in workload))
        assert len(scheduler.completed_tasks()) == len(workload)
