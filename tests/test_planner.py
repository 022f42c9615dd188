"""Constraint-sensitive I/O-compute planner (paper §7)."""

from repro.core.planner import IOComputePlanner, PlannerConfig, PlannerStats
from repro.hardware.costmodel import CostModel
from repro.hardware.spec import ENV1
from repro.model.config import MIXTRAL_8X7B
from repro.routing.workload import paper_workload


def make_planner(model=MIXTRAL_8X7B, hw=ENV1, config=None, coverage=0.55, active=7.0):
    cost = CostModel(model, hw)
    stats = PlannerStats(hot_coverage=coverage, expected_active=active)
    return IOComputePlanner(cost, stats, config)


class TestConstraintMargins:
    def test_margins_monotonic_in_n(self):
        planner = make_planner()
        wl = paper_workload(16, 1)
        m1 = planner.constraint_margins(wl, 2)
        m2 = planner.constraint_margins(wl, 8)
        for key in m1:
            assert m2[key] > m1[key]

    def test_all_four_inequalities_present(self):
        planner = make_planner()
        margins = planner.constraint_margins(paper_workload(16, 1), 4)
        assert set(margins) == {
            "ineq4_gate_ready",
            "ineq5_hot_ready",
            "ineq6_first_cold_ready",
            "ineq7_next_attn_ready",
        }

    def test_gate_constraint_easiest(self):
        """The gate is tiny; inequality (4) should hold long before (7)."""
        planner = make_planner()
        margins = planner.constraint_margins(paper_workload(16, 1), 2)
        assert margins["ineq4_gate_ready"] > margins["ineq7_next_attn_ready"]


class TestPlanning:
    def test_plan_returns_feasible_n(self):
        planner = make_planner()
        plan = planner.plan(paper_workload(16, 1))
        assert plan.feasible
        assert 1 <= plan.n <= 64

    def test_planned_n_is_minimal(self):
        planner = make_planner()
        plan = planner.plan(paper_workload(16, 1))
        if plan.n > 1:
            margins = planner.constraint_margins(paper_workload(16, 1), plan.n - 1)
            assert any(v < 0 for v in margins.values())

    def test_larger_batch_needs_smaller_n(self):
        """Figure 14: bigger batches saturate the pipeline at smaller n."""
        planner = make_planner()
        small = planner.plan(paper_workload(4, 1)).n
        large = planner.plan(paper_workload(64, 1)).n
        assert large <= small

    def test_quantization_reduces_required_n(self):
        """§9.3: quantization shrinks I/O so a smaller n fully overlaps."""
        plain = make_planner().plan(paper_workload(8, 1)).n
        quant = make_planner(
            config=PlannerConfig(quantize_bytes_factor=0.28)
        ).plan(paper_workload(8, 1)).n
        assert quant <= plain

    def test_slower_pcie_needs_larger_n(self):
        """n tracks the compute-to-I/O ratio: halving link bandwidth (same
        GPU) requires a larger batch group to cover the transfers."""
        from dataclasses import replace

        from repro.hardware.spec import LinkSpec

        slow = replace(
            ENV1,
            pcie_h2d=LinkSpec("slow-h2d", ENV1.pcie_h2d.bandwidth_bytes_per_s / 2),
        )
        n_fast = make_planner(MIXTRAL_8X7B, ENV1).plan(paper_workload(16, 1)).n
        n_slow = make_planner(MIXTRAL_8X7B, slow).plan(paper_workload(16, 1)).n
        assert n_slow > n_fast

    def test_decode_phase_planning_harder(self):
        avg = make_planner().plan(paper_workload(16, 1))
        decode = make_planner(config=PlannerConfig(phase="decode")).plan(
            paper_workload(16, 1)
        )
        assert decode.n >= avg.n

    def test_infeasible_returns_cap_with_notes(self):
        planner = make_planner(config=PlannerConfig(n_max=2, phase="decode"))
        plan = planner.plan(paper_workload(4, 1))
        assert not plan.feasible
        assert plan.n == 2
        assert plan.memory_capped
        assert any("residual bubbles" in note for note in plan.notes)

    def test_binding_constraint_reported(self):
        plan = make_planner().plan(paper_workload(16, 1))
        assert plan.binding_constraint.startswith("ineq")


class TestMemoryCap:
    def test_kv_budget_caps_n(self):
        planner = make_planner(
            config=PlannerConfig(kv_dram_fraction=0.001)
        )
        cap = planner.memory_cap(paper_workload(64, 1))
        assert cap < 64

    def test_cap_at_least_one(self):
        planner = make_planner(config=PlannerConfig(kv_dram_fraction=1e-9))
        assert planner.memory_cap(paper_workload(64, 1)) == 1

    def test_vram_kv_mode_tighter(self):
        dram = make_planner().memory_cap(paper_workload(64, 1))
        vram = make_planner(config=PlannerConfig(kv_in_vram=True)).memory_cap(
            paper_workload(64, 1)
        )
        assert vram <= dram


class TestRoutingStats:
    def test_from_popularity(self):
        import numpy as np

        from repro.routing.popularity import layer_popularity

        pop = layer_popularity(4, 8, 1.2, np.random.default_rng(0))
        stats = PlannerStats.from_popularity(pop, k=2, n_tokens=128, top_k=2)
        assert 0.25 < stats.hot_coverage < 1.0
        assert 2.0 < stats.expected_active <= 8.0
