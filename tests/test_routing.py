"""Routing substrate: traces, popularity models, synthetic router."""

import numpy as np
import pytest

from repro.routing.popularity import (
    expected_active_experts,
    expected_topk_coverage,
    layer_popularity,
    zipf_weights,
)
from repro.routing.synthetic import RoutingModelConfig, SyntheticRouter
from tests.routing_reference import sample_layer
from repro.routing.trace import (
    ExpertTrace,
    StepTrace,
    activated_experts,
    coverage,
    expert_token_counts,
    hot_experts,
)


class TestTraceHelpers:
    def test_expert_token_counts(self):
        a = np.array([[0, 1], [0, 2], [1, 0]])
        counts = expert_token_counts(a, 4)
        assert list(counts) == [3, 2, 1, 0]

    def test_empty_assignments(self):
        assert list(expert_token_counts(np.empty((0, 2), dtype=int), 3)) == [0, 0, 0]
        assert activated_experts(np.empty((0, 2), dtype=int)) == []

    def test_activated_experts_sorted_unique(self):
        a = np.array([[2, 1], [2, 3]])
        assert activated_experts(a) == [1, 2, 3]

    def test_hot_experts_order_and_ties(self):
        counts = np.array([5, 9, 5, 0])
        assert hot_experts(counts, 2) == [1, 0]  # tie broken by id
        assert hot_experts(counts, 4) == [1, 0, 2, 3]

    def test_coverage(self):
        counts = np.array([6, 3, 1])
        assert coverage(counts, [0]) == pytest.approx(0.6)
        assert coverage(np.zeros(3, dtype=int), [0]) == 0.0


class TestExpertTrace:
    def make_trace(self):
        trace = ExpertTrace(num_experts=3)
        step = StepTrace()
        step.append(np.array([[0], [0], [1]]))
        step.append(np.array([[2], [2], [2]]))
        trace.append(step)
        return trace

    def test_layer_counts(self):
        counts = self.make_trace().layer_counts()
        assert counts.shape == (2, 3)
        assert list(counts[0]) == [2, 1, 0]
        assert list(counts[1]) == [0, 0, 3]

    def test_popularity_rows_normalized(self):
        pop = self.make_trace().popularity()
        assert np.allclose(pop.sum(axis=1), 1.0)

    def test_topk_coverage(self):
        cov = self.make_trace().topk_coverage(1)
        assert cov[0] == pytest.approx(2 / 3)
        assert cov[1] == pytest.approx(1.0)

    def test_empty_trace(self):
        trace = ExpertTrace(num_experts=3)
        assert trace.layer_counts().shape == (0, 3)


class TestPopularityModels:
    def test_zipf_normalized_and_decreasing(self):
        w = zipf_weights(8, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_zipf_zero_skew_uniform(self):
        w = zipf_weights(4, 0.0)
        assert np.allclose(w, 0.25)

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(4, -1.0)

    def test_layer_popularity_rows_are_permuted_zipf(self, rng):
        pop = layer_popularity(6, 8, 1.2, rng)
        base = np.sort(zipf_weights(8, 1.2))
        for row in pop:
            assert np.allclose(np.sort(row), base)

    def test_hot_sets_vary_across_layers(self, rng):
        pop = layer_popularity(16, 8, 1.2, rng)
        assert len(set(pop.argmax(axis=1).tolist())) > 1

    def test_expected_topk_coverage(self):
        row = np.array([0.5, 0.3, 0.1, 0.1])
        assert expected_topk_coverage(row, 2) == pytest.approx(0.8)

    def test_expected_active_bounds(self):
        row = zipf_weights(8, 1.0)
        few = expected_active_experts(row, 1, 1)
        many = expected_active_experts(row, 10_000, 2)
        assert few == pytest.approx(1.0)
        assert 7.9 < many <= 8.0


class TestSyntheticRouter:
    @pytest.fixture
    def router(self):
        return SyntheticRouter(
            RoutingModelConfig(num_layers=6, num_experts=8, top_k=2, seed=1)
        )

    def test_sample_step_shapes(self, router):
        step = router.sample_step(100)
        assert len(step) == 6
        for a in step:
            assert a.shape == (100, 2)

    def test_topk_distinct(self, router):
        step = router.sample_step(200)
        for a in step:
            assert np.all(a[:, 0] != a[:, 1])

    def test_experts_in_range(self, router):
        step = router.sample_step(50)
        for a in step:
            assert a.min() >= 0 and a.max() < 8

    def test_skew_matches_popularity(self):
        router = SyntheticRouter(
            RoutingModelConfig(num_layers=2, num_experts=8, top_k=1, skew=1.5,
                               correlation=0.0, seed=0)
        )
        a = sample_layer(router, 0, None, 50_000, np.random.default_rng(0))
        freq = expert_token_counts(a, 8) / 50_000
        assert np.allclose(freq, router.popularity[0], atol=0.01)

    def test_correlation_creates_predictable_paths(self):
        cfg = RoutingModelConfig(
            num_layers=2, num_experts=8, top_k=1, correlation=1.0, seed=2
        )
        router = SyntheticRouter(cfg)
        rng = np.random.default_rng(0)
        prev = sample_layer(router, 0, None, 1000, rng)[:, 0]
        nxt = sample_layer(router, 1, prev, 1000, rng)[:, 0]
        assert np.array_equal(nxt, router.chain_map[1][prev])

    def test_zero_correlation_ignores_history(self):
        cfg = RoutingModelConfig(
            num_layers=2, num_experts=8, top_k=1, correlation=0.0, seed=2
        )
        router = SyntheticRouter(cfg)
        rng = np.random.default_rng(0)
        prev = np.zeros(20_000, dtype=np.int64)
        nxt = sample_layer(router, 1, prev, 20_000, rng)[:, 0]
        freq = expert_token_counts(nxt[:, None], 8) / 20_000
        assert np.allclose(freq, router.popularity[1], atol=0.02)

    def test_stream_matches_num_layers(self, router):
        layers = list(router.stream(10, seed=3))
        assert [l for l, _ in layers] == list(range(6))

    def test_stream_deterministic_per_seed(self, router):
        a = [x.copy() for _, x in router.stream(10, seed=3)]
        b = [x.copy() for _, x in router.stream(10, seed=3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RoutingModelConfig(2, 4, 5)
        with pytest.raises(ValueError):
            RoutingModelConfig(2, 4, 1, correlation=1.5)
