"""Klotski core: pipeline, planner, prefetcher, placement, engine."""

from repro.core.engine import KlotskiEngine, KlotskiOptions, KlotskiSystem
from repro.core.pipeline import PipelineBuilder, PipelineFeatures
from repro.core.placement import PlacementConfig, PlacementPlan, plan_placement
from repro.core.planner import IOComputePlanner, PlannerConfig, PlanResult, PlannerStats
from repro.core.prefetcher import CorrelationTable, ExpertPrefetcher, PrefetchStats

__all__ = [
    "KlotskiEngine",
    "KlotskiOptions",
    "KlotskiSystem",
    "PipelineBuilder",
    "PipelineFeatures",
    "PlacementConfig",
    "PlacementPlan",
    "plan_placement",
    "IOComputePlanner",
    "PlannerConfig",
    "PlanResult",
    "PlannerStats",
    "CorrelationTable",
    "ExpertPrefetcher",
    "PrefetchStats",
]
