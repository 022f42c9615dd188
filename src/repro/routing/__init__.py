"""Expert routing substrate: synthetic routers, traces, and workloads."""

from repro.routing.oracle import (
    LayerRouting,
    RoutingOracle,
    RoutingStats,
    SyntheticOracle,
    TraceOracle,
    clear_step_routing_memo,
)
from repro.routing.synthetic import RoutingModelConfig, SyntheticRouter
from repro.routing.trace import (
    ExpertTrace,
    StepTrace,
    activated_experts,
    coverage,
    expert_token_counts,
    hot_experts,
)
from repro.routing.workload import Workload, paper_workload

__all__ = [
    "LayerRouting",
    "RoutingOracle",
    "RoutingStats",
    "SyntheticOracle",
    "TraceOracle",
    "clear_step_routing_memo",
    "RoutingModelConfig",
    "SyntheticRouter",
    "ExpertTrace",
    "StepTrace",
    "activated_experts",
    "coverage",
    "expert_token_counts",
    "hot_experts",
    "Workload",
    "paper_workload",
]
