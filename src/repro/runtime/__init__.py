"""Schedule IR, discrete-event executor, timelines, and metrics."""

from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.metrics import InferenceMetrics, metrics_from_timeline
from repro.runtime.schedule import MemEffect, Op, Schedule
from repro.runtime.timeline import ExecutedOp, IdleGap, Timeline

__all__ = [
    "Executor",
    "ExecutorConfig",
    "InferenceMetrics",
    "metrics_from_timeline",
    "MemEffect",
    "Op",
    "Schedule",
    "ExecutedOp",
    "IdleGap",
    "Timeline",
]
