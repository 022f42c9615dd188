"""Planner boundary scenarios (§7's best/worst cases) and error types."""

import pytest

from repro.core.planner import IOComputePlanner, PlannerStats
from repro.errors import (
    ConfigError,
    OutOfMemoryError,
    PlanningError,
    ReproError,
    ScheduleError,
)
from repro.hardware.costmodel import CostModel
from repro.hardware.spec import ENV1
from repro.model.config import MIXTRAL_8X7B
from repro.routing.workload import paper_workload


def planner_with(coverage: float, active: float, config=None) -> IOComputePlanner:
    return IOComputePlanner(
        CostModel(MIXTRAL_8X7B, ENV1),
        PlannerStats(hot_coverage=coverage, expected_active=active),
        config,
    )


class TestPaperBoundaryCases:
    def test_optimal_all_tokens_hot(self):
        """§7 optimal scenario: every token selects a hot expert, so no
        cold-expert transfers constrain the plan — smallest n."""
        optimal = planner_with(coverage=1.0, active=2.0)
        typical = planner_with(coverage=0.55, active=6.5)
        wl = paper_workload(16, 1)
        assert optimal.plan(wl).n <= typical.plan(wl).n

    def test_worst_all_tokens_cold(self):
        """§7 worst case: all tokens select cold experts; t_c_hotE = 0 and
        prefetching is ineffective, requiring the largest n (or residual
        bubbles)."""
        worst = planner_with(coverage=0.0, active=8.0)
        typical = planner_with(coverage=0.55, active=6.5)
        wl = paper_workload(16, 1)
        assert worst.plan(wl).n >= typical.plan(wl).n

    def test_worst_case_margins_weaker_at_fixed_n(self):
        wl = paper_workload(16, 1)
        worst = planner_with(0.0, 8.0).constraint_margins(wl, 8)
        best = planner_with(1.0, 2.0).constraint_margins(wl, 8)
        assert best["ineq7_next_attn_ready"] > worst["ineq7_next_attn_ready"]

    def test_more_active_experts_need_larger_n(self):
        wl = paper_workload(16, 1)
        few = planner_with(0.55, 4.0).plan(wl).n
        many = planner_with(0.55, 8.0).plan(wl).n
        assert many >= few

    def test_dense_like_single_expert(self):
        """One always-hot expert: the system degenerates gracefully."""
        planner = planner_with(coverage=1.0, active=1.0)
        plan = planner.plan(paper_workload(4, 1))
        assert plan.n >= 1


class TestErrorTypes:
    def test_hierarchy(self):
        for err_cls in (ConfigError, OutOfMemoryError, PlanningError, ScheduleError):
            assert issubclass(err_cls, ReproError)

    def test_oom_carries_context(self):
        err = OutOfMemoryError("vram", 100, 40)
        assert err.pool == "vram"
        assert err.requested == 100
        assert err.available == 40
        assert "vram" in str(err)

    def test_repro_error_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise OutOfMemoryError("dram", 1, 0)
