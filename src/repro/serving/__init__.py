"""Serving layer: request streams and dispatch policies.

A replica's group shape (``B × n`` requests per dispatched group) is
its scenario's :class:`~repro.routing.workload.Workload`; the fleet's
partial-group deadline is ``repro.api.ClusterConfig.max_wait_s``.
"""

from repro.serving.requests import (
    ArrivalConfig,
    BurstyConfig,
    Request,
    assign_hot_experts,
    generate_bursty,
    generate_requests,
    replay_trace,
)

__all__ = [
    "ArrivalConfig",
    "BurstyConfig",
    "Request",
    "assign_hot_experts",
    "generate_bursty",
    "generate_requests",
    "replay_trace",
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
