"""Multi-replica cluster serving: routing, group formation, SLO accounting.

The serving simulation: N replicas (any
:class:`~repro.systems.InferenceSystem`, heterogeneous hardware; one
machine is a one-replica fleet) serve one request stream behind a
pluggable router, driven by one discrete-event loop under a dispatch
policy (group batching or continuous batching). Results roll
up into a :class:`ClusterReport` with TTFT/latency percentiles, goodput
under an SLO, per-replica utilization, and cost-per-token.

The fleet is declared once: :class:`ClusterConfig` is
``repro.api.ClusterConfig``, re-exported here, and each replica's group
shape (``B × n`` requests) is its scenario's
:class:`~repro.routing.workload.Workload`.

Fault tolerance (:mod:`repro.cluster.faults`): a seeded
:class:`FaultConfig` compiles into a deterministic :class:`FaultPlan` of
crashes, stragglers, transient dispatch failures, and join/drain events;
a :class:`RetryPolicy` governs failover re-dispatch, and admission
control sheds load with SLO-class awareness — see ``docs/robustness.md``.
"""

from repro.api.config import ClusterConfig
from repro.cluster.engines import ENGINES
from repro.cluster.events import (
    ARRIVAL,
    COMPLETION,
    CRASH,
    DEADLINE,
    DRAIN,
    JOIN,
    KIND_PRIORITY,
    RECOVER,
    RETRY,
    SLOW_END,
    SLOW_START,
    Event,
    EventQueue,
)
from repro.cluster.faults import (
    FaultConfig,
    FaultPlan,
    RetryPolicy,
    compile_fault_plan,
)
from repro.cluster.replica import (
    DispatchedGroup,
    GroupTiming,
    Replica,
    clear_group_timing_memo,
)
from repro.cluster.report import (
    ClusterReport,
    ReplicaStats,
    RequestRecord,
)
from repro.cluster.routers import (
    ExpertAffinityRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.cluster.simulator import ClusterSimulator, build_cluster


__all__ = [
    "ARRIVAL",
    "COMPLETION",
    "CRASH",
    "DEADLINE",
    "DRAIN",
    "ENGINES",
    "JOIN",
    "KIND_PRIORITY",
    "RECOVER",
    "RETRY",
    "SLOW_END",
    "SLOW_START",
    "Event",
    "EventQueue",
    "FaultConfig",
    "FaultPlan",
    "RetryPolicy",
    "compile_fault_plan",
    "DispatchedGroup",
    "GroupTiming",
    "Replica",
    "clear_group_timing_memo",
    "ClusterReport",
    "ReplicaStats",
    "RequestRecord",
    "ExpertAffinityRouter",
    "LeastOutstandingRouter",
    "RoundRobinRouter",
    "Router",
    "make_router",
    "ClusterConfig",
    "ClusterSimulator",
    "build_cluster",
]
