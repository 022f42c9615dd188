"""Serving layer: request streams, batching, and dispatch policies."""

from repro.serving.requests import (
    ArrivalConfig,
    BurstyConfig,
    Request,
    assign_hot_experts,
    generate_bursty,
    generate_requests,
    replay_trace,
)
from repro.serving.server import BatchingConfig

__all__ = [
    "ArrivalConfig",
    "BurstyConfig",
    "Request",
    "assign_hot_experts",
    "generate_bursty",
    "generate_requests",
    "replay_trace",
    "BatchingConfig",
    "Scheduler",
    "GroupScheduler",
    "ContinuousScheduler",
]

_SCHEDULER_EXPORTS = ("Scheduler", "GroupScheduler", "ContinuousScheduler")


def __getattr__(name):
    # The schedulers import the cluster layer, which in turn imports
    # repro.serving.requests — loading them eagerly here would close an
    # import cycle. Resolve them on first attribute access instead.
    if name in _SCHEDULER_EXPORTS:
        from repro.serving import scheduler

        return getattr(scheduler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
