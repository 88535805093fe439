"""Task types handled by the Task Scheduler.

The paper enumerates five task types (Section 4): feature extraction (T_f),
model training (T_m), model inference (T_i), feature evaluation (T_e), and
sample selection (T_s), plus the low-priority eager feature extraction tasks
(T_f-) introduced by the VE-full strategy.  This reproduction adds a
T_s-style vector-search task for the similarity-search workload so its
latency is charged through the same scheduler accounting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .. import telemetry
from ..exceptions import TaskError

__all__ = ["TaskKind", "TaskPriority", "Task", "CompletedTask"]


class TaskKind:
    """Names of the scheduler's task types."""

    SAMPLE_SELECTION = "sample_selection"        # T_s
    FEATURE_EXTRACTION = "feature_extraction"    # T_f
    MODEL_INFERENCE = "model_inference"          # T_i
    MODEL_TRAINING = "model_training"            # T_m
    FEATURE_EVALUATION = "feature_evaluation"    # T_e
    EAGER_FEATURE_EXTRACTION = "eager_feature_extraction"  # T_f-
    VECTOR_SEARCH = "vector_search"              # T_s-style similarity search

    ALL = (
        SAMPLE_SELECTION,
        FEATURE_EXTRACTION,
        MODEL_INFERENCE,
        MODEL_TRAINING,
        FEATURE_EVALUATION,
        EAGER_FEATURE_EXTRACTION,
        VECTOR_SEARCH,
    )


class TaskPriority:
    """Background priorities: lower values run first."""

    MODEL_TRAINING = 0
    FEATURE_EVALUATION = 1
    FEATURE_EXTRACTION = 2
    EAGER = 10

    #: Default priority per task kind.
    BY_KIND = {
        TaskKind.MODEL_TRAINING: MODEL_TRAINING,
        TaskKind.FEATURE_EVALUATION: FEATURE_EVALUATION,
        TaskKind.FEATURE_EXTRACTION: FEATURE_EXTRACTION,
        TaskKind.SAMPLE_SELECTION: FEATURE_EXTRACTION,
        TaskKind.MODEL_INFERENCE: FEATURE_EXTRACTION,
        TaskKind.VECTOR_SEARCH: FEATURE_EXTRACTION,
        TaskKind.EAGER_FEATURE_EXTRACTION: EAGER,
    }


_task_counter = itertools.count()


@dataclass
class Task:
    """One unit of schedulable work.

    The ``action`` callable performs the task's side effect (e.g. register a
    trained model) and receives the completion timestamp; it runs exactly
    once, when the task finishes.  Durations come from the cost model, and
    the scheduler consumes them by advancing its simulated clock.
    """

    kind: str
    duration: float
    action: Callable[[float], None] | None = None
    #: Declarative description of ``action`` for durable checkpoints: a
    #: JSON-serialisable dict from which the session can re-materialise the
    #: closure after a resume (``repro.core.checkpoint``).  Tasks queued in
    #: the background must carry one whenever they carry an action; purely
    #: foreground tasks never need it.
    action_spec: dict | None = None
    priority: int | None = None
    description: str = ""
    available_at: float = 0.0
    task_id: int = field(default_factory=lambda: next(_task_counter))
    #: Span active when the task was created, captured so the scheduler can
    #: parent the task's span to the iteration that enqueued it — even when
    #: the task runs windows later (or came from the idle-task factory,
    #: which bypasses ``scheduler.submit``).  None while telemetry is
    #: disabled.
    trace_context: object | None = field(default=None, repr=False)
    remaining: float = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in TaskKind.ALL:
            raise TaskError(f"unknown task kind {self.kind!r}")
        if self.duration < 0:
            raise TaskError(f"task duration must be >= 0, got {self.duration}")
        if self.priority is None:
            self.priority = TaskPriority.BY_KIND[self.kind]
        if self.trace_context is None:
            self.trace_context = telemetry.capture_context()
        self.remaining = float(self.duration)

    @property
    def started(self) -> bool:
        """True once any of the task's work has been consumed."""
        return self.remaining < self.duration

    @property
    def finished(self) -> bool:
        """True once no work remains (within float tolerance)."""
        return self.remaining <= 1e-12

    def work(self, seconds: float) -> float:
        """Consume up to ``seconds`` of the task; returns the time actually used."""
        if seconds < 0:
            raise TaskError(f"cannot work a negative amount of time ({seconds})")
        used = min(seconds, self.remaining)
        self.remaining -= used
        return used

    def complete(self, at_time: float) -> "CompletedTask":
        """Run the task's action (if any) and return a completion record."""
        if not self.finished:
            raise TaskError(
                f"task {self.task_id} ({self.kind}) still has {self.remaining:.3f}s of work"
            )
        if self.action is not None:
            self.action(at_time)
        return CompletedTask(
            task_id=self.task_id,
            kind=self.kind,
            duration=self.duration,
            completed_at=at_time,
            description=self.description,
        )


@dataclass(frozen=True)
class CompletedTask:
    """Record of a finished task."""

    task_id: int
    kind: str
    duration: float
    completed_at: float
    description: str = ""
