"""Workloads and routing oracles."""

import numpy as np
import pytest

from repro.routing.oracle import LayerRouting, RoutingStats, SyntheticOracle, TraceOracle
from repro.routing.synthetic import RoutingModelConfig
from repro.routing.trace import ExpertTrace, StepTrace
from repro.routing.workload import Workload, paper_workload


class TestWorkload:
    def test_paper_workload_defaults(self):
        wl = paper_workload(16, 8)
        assert (wl.prompt_len, wl.gen_len) == (512, 32)

    def test_derived_quantities(self):
        wl = Workload(4, 3, 32, 8)
        assert wl.total_sequences == 12
        assert wl.generated_tokens == 96
        assert wl.prefill_tokens == 384
        assert wl.num_steps == 8
        assert wl.context_at(0) == 32
        assert wl.context_at(5) == 37

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(0, 1, 8, 1)
        with pytest.raises(ValueError):
            Workload(1, 1, 8, 0)

    def test_with_batches(self):
        wl = Workload(4, 3, 32, 8).with_batches(7)
        assert wl.num_batches == 7
        assert wl.batch_size == 4


class TestSyntheticOracle:
    @pytest.fixture
    def oracle(self):
        return SyntheticOracle(
            RoutingModelConfig(num_layers=4, num_experts=8, top_k=2, seed=0),
            prefill_token_cap=64,
            seed=9,
        )

    def test_decode_step_token_count(self, oracle):
        wl = Workload(4, 3, 32, 4)
        n, scale = oracle.tokens_for_step(1, wl)
        assert n == 12 and scale == 1.0

    def test_prefill_subsampling_scale(self, oracle):
        wl = Workload(4, 3, 32, 4)  # 384 prefill tokens, cap 64
        n, scale = oracle.tokens_for_step(0, wl)
        assert n == 64
        assert scale == pytest.approx(384 / 64)

    def test_step_routing_layers(self, oracle):
        wl = Workload(2, 2, 8, 2)
        routings = list(oracle.step_routing(1, wl))
        assert [r.layer for r in routings] == [0, 1, 2, 3]
        assert all(r.assignments.shape == (4, 2) for r in routings)

    def test_deterministic_across_calls(self, oracle):
        wl = Workload(2, 2, 8, 2)
        a = [r.assignments.copy() for r in oracle.step_routing(1, wl)]
        b = [r.assignments.copy() for r in oracle.step_routing(1, wl)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_steps_differ(self, oracle):
        wl = Workload(4, 4, 8, 3)
        a = np.concatenate([r.assignments for r in oracle.step_routing(1, wl)])
        b = np.concatenate([r.assignments for r in oracle.step_routing(2, wl)])
        assert not np.array_equal(a, b)


class TestTraceOracle:
    def make_trace(self):
        trace = ExpertTrace(num_experts=4)
        for _ in range(2):
            step = StepTrace()
            step.append(np.array([[0, 1], [2, 3]]))
            step.append(np.array([[1, 0], [1, 2]]))
            trace.append(step)
        return trace

    def test_replay(self):
        oracle = TraceOracle(self.make_trace(), top_k=2)
        wl = Workload(2, 1, 4, 2)
        routings = list(oracle.step_routing(0, wl))
        assert len(routings) == 2
        assert routings[0].assignments.shape == (2, 2)

    def test_repeats_last_step_beyond_trace(self):
        oracle = TraceOracle(self.make_trace(), top_k=2)
        wl = Workload(2, 1, 4, 10)
        last = list(oracle.step_routing(9, wl))
        orig = list(oracle.step_routing(1, wl))
        assert np.array_equal(last[0].assignments, orig[0].assignments)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceOracle(ExpertTrace(num_experts=4), top_k=2)


class TestRoutingStats:
    @staticmethod
    def direct(assignments, n, num_experts):
        """Reference derivation: per-slice histograms over array_split."""
        slices = np.array_split(assignments, n)
        counts = np.stack(
            [np.bincount(s.ravel(), minlength=num_experts) for s in slices]
        )
        totals = counts.sum(axis=0)
        return counts, totals

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 7, 10, 13])
    def test_matches_direct_numpy(self, n, rows):
        num_experts = 6
        rng = np.random.default_rng(100 * n + rows)
        assignments = np.stack(
            [rng.choice(num_experts, 2, replace=False) for _ in range(rows)]
        )
        stats = LayerRouting(0, assignments).stats(n, num_experts)
        counts, totals = self.direct(assignments, n, num_experts)
        assert stats.counts == tuple(counts.ravel().tolist())
        assert stats.totals == tuple(totals.tolist())
        assert stats.pairs == tuple(np.flatnonzero(counts).tolist())
        assert stats.active == tuple(np.flatnonzero(totals).tolist())
        assert stats.inactive == tuple(np.flatnonzero(totals == 0).tolist())

    def test_stats_are_read_only_and_cached(self):
        routing = LayerRouting(0, np.array([[0, 1], [2, 1], [1, 3]]))
        stats = routing.stats(2, 4)
        assert routing.stats(2, 4) is stats
        assert isinstance(stats, RoutingStats)
        assert all(isinstance(f, tuple) for f in stats)
        with pytest.raises(AttributeError):
            stats.totals = (0, 0, 0, 0)
        # another split is derived afresh, not served from the cache
        assert routing.stats(1, 4).counts == (1, 3, 1, 1)
        assert routing.stats(2, 4) == stats

    def test_memoized_routing_shares_stats(self):
        config = RoutingModelConfig(
            num_layers=3, num_experts=8, top_k=2, skew=1.0, correlation=0.5, seed=4
        )
        wl = Workload(3, 2, 8, 2)
        first = list(SyntheticOracle(config, seed=9).step_routing(1, wl))
        stats = [r.stats(2, 8) for r in first]
        again = list(SyntheticOracle(config, seed=9).step_routing(1, wl))
        assert [r.stats(2, 8) for r in again] == stats
        assert all(a.stats(2, 8) is s for a, s in zip(again, stats))

    def test_router_is_built_lazily(self):
        config = RoutingModelConfig(
            num_layers=2, num_experts=4, top_k=2, skew=1.0, correlation=0.5, seed=1
        )
        oracle = SyntheticOracle(config, seed=5)
        assert oracle._router is None
        assert oracle.router.config is config
        assert oracle.router is oracle.router


class TestTraceOracleRouting:
    def test_fresh_routing_per_call_with_varying_rows(self):
        trace = ExpertTrace(num_experts=4)
        step = StepTrace()
        step.append(np.array([[0, 1], [2, 3], [1, 2]]))
        step.append(np.array([[3, 0]]))
        trace.append(step)
        oracle = TraceOracle(trace, top_k=2)
        wl = Workload(2, 1, 4, 1)
        a = list(oracle.step_routing(0, wl))
        b = list(oracle.step_routing(0, wl))
        assert all(x is not y for x, y in zip(a, b))
        assert [r.n_tokens for r in a] == [3, 1]
        assert a[0].stats(2, 4).counts == (1, 1, 1, 1, 0, 1, 1, 0)
        assert a[1].stats(2, 4).counts == (1, 0, 0, 1, 0, 0, 0, 0)
