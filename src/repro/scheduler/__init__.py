"""Task Scheduler subsystem: clock, cost model, tasks, priority scheduler,
and strategies."""

from .clock import SimulatedClock
from .cost_model import CostModel
from .scheduler import IterationLatency, TaskScheduler
from .strategies import SERIAL, VE_FULL, VE_PARTIAL, StrategyBehaviour, strategy_behaviour
from .tasks import CompletedTask, Task, TaskKind, TaskPriority

__all__ = [
    "SimulatedClock",
    "CostModel",
    "Task",
    "TaskKind",
    "TaskPriority",
    "CompletedTask",
    "TaskScheduler",
    "IterationLatency",
    "StrategyBehaviour",
    "strategy_behaviour",
    "SERIAL",
    "VE_PARTIAL",
    "VE_FULL",
]
