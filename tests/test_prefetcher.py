"""Correlation-aware expert prefetcher (paper §6.2, Figure 13)."""

import numpy as np
import pytest

from repro.core.prefetcher import CorrelationTable, ExpertPrefetcher
from repro.routing.oracle import StepStats
from repro.routing.synthetic import RoutingModelConfig, SyntheticRouter
from tests.routing_reference import sample_layer


def correlated_router(correlation=0.9, layers=6, experts=8, top_k=2, seed=0):
    return SyntheticRouter(
        RoutingModelConfig(
            num_layers=layers,
            num_experts=experts,
            top_k=top_k,
            correlation=correlation,
            seed=seed,
        )
    )


class TestCorrelationTable:
    def test_path_encoding_roundtrip(self):
        table = CorrelationTable(4, 8, path_length=2)
        history = np.array([[3, 5], [0, 7]])
        encoded = table.encode_paths(history)
        assert list(encoded) == [3 * 8 + 5, 0 * 8 + 7]

    def test_record_updates_marginal(self):
        table = CorrelationTable(2, 4)
        table.record_step([np.array([[0], [0], [1]]), np.array([[2], [2], [3]])])
        assert table._marginal[0][0] == 2
        assert table._marginal[1][2] == 2

    def test_predict_falls_back_to_marginal(self):
        table = CorrelationTable(2, 4)
        table.record_step([np.array([[1], [1], [0]]), np.array([[3], [3], [2]])])
        # Layer 0 has no predecessor: prediction = marginal hot experts.
        assert table.predict_hot(0, None, 1) == [1]

    def test_predict_uses_transitions(self):
        table = CorrelationTable(2, 4)
        # Expert 0 at layer 0 always leads to expert 3 at layer 1.
        for _ in range(5):
            table.record_step([np.array([[0], [0]]), np.array([[3], [3]])])
        history = np.array([[0], [0], [0]])
        assert table.predict_hot(1, history, 1) == [3]

    def test_tendencies_aggregate_over_tokens(self):
        table = CorrelationTable(2, 4)
        table.record_step([np.array([[0], [1]]), np.array([[2], [3]])])
        history = np.array([[0], [0], [1]])  # two tokens lean 2, one leans 3
        scores = table.tendencies(1, history)
        assert scores[2] > scores[3]

    def test_path_length_validation(self):
        with pytest.raises(ValueError):
            CorrelationTable(2, 4, path_length=0)
        with pytest.raises(ValueError):
            CorrelationTable(2, 1000, path_length=3)


class TestExpertPrefetcher:
    def run_steps(self, prefetcher, router, n_tokens=256, steps=4, seed=10):
        """Drive the prefetcher through sampled steps; return accuracies."""
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            layers, prev = [], None
            for layer in range(router.config.num_layers):
                layers.append(sample_layer(router, layer, prev, n_tokens, rng))
                prev = layers[-1][:, 0]
            step = np.stack(layers)
            predicted = prefetcher.predict_step(step[:, :, 0])
            totals = StepStats.of(step, 1, router.config.num_experts).totals
            prefetcher.observe_step(step, totals, predicted)

    def test_warm_up_then_high_participation(self):
        router = correlated_router()
        prefetcher = ExpertPrefetcher(6, 8, top_k=2)
        rng = np.random.default_rng(0)
        prefetcher.warm_up([router.sample_step(512, rng) for _ in range(4)])
        self.run_steps(prefetcher, router)
        # Figure 13 (green): prefetched experts virtually always participate
        # when many tokens are in flight.
        assert prefetcher.stats.participation_rate().mean() > 0.95

    def test_correlation_beats_no_warmup_hot_accuracy(self):
        router = correlated_router(correlation=0.9)
        warm = ExpertPrefetcher(6, 8, top_k=2, online_update=False)
        rng = np.random.default_rng(0)
        warm.warm_up([router.sample_step(512, rng) for _ in range(6)])
        cold = ExpertPrefetcher(6, 8, top_k=2, online_update=False)
        self.run_steps(warm, router)
        self.run_steps(cold, router)
        assert warm.stats.hot_accuracy().mean() > cold.stats.hot_accuracy().mean()

    def test_hot_accuracy_in_paper_range(self):
        """Figure 13 (blue): hot-expert prediction accuracy ~0.4-0.9."""
        router = correlated_router(correlation=0.55)
        prefetcher = ExpertPrefetcher(6, 8, top_k=2)
        rng = np.random.default_rng(0)
        prefetcher.warm_up([router.sample_step(512, rng) for _ in range(4)])
        self.run_steps(prefetcher, router)
        acc = prefetcher.stats.hot_accuracy().mean()
        assert 0.3 < acc <= 1.0

    def test_online_update_learns_without_warmup(self):
        router = correlated_router(correlation=0.9)
        prefetcher = ExpertPrefetcher(6, 8, top_k=2, online_update=True)
        self.run_steps(prefetcher, router, steps=8)
        late = prefetcher.stats.hot_accuracy()
        assert late.mean() > 0.2  # learned something from scratch

    def test_prefetch_k_width(self):
        prefetcher = ExpertPrefetcher(4, 8, top_k=2, prefetch_k=4)
        prefetcher.table.record_step(
            [np.array([[i % 8, (i + 1) % 8] for i in range(32)])] * 4
        )
        assert len(prefetcher.predict_first()) == 4

    def test_path_length_two(self):
        router = correlated_router(correlation=0.9)
        prefetcher = ExpertPrefetcher(6, 8, top_k=2, path_length=2)
        rng = np.random.default_rng(0)
        prefetcher.warm_up([router.sample_step(256, rng) for _ in range(4)])
        self.run_steps(prefetcher, router)
        assert prefetcher.stats.participation_rate().mean() > 0.9

    def test_single_sequence_participation_lower(self):
        """§9.6: single-sequence prefetching wastes far more I/O (42.24 %
        vs ~100 % participation for the multi-batch aggregate)."""
        router = correlated_router(correlation=0.5, top_k=2)
        rng = np.random.default_rng(0)
        multi = ExpertPrefetcher(6, 8, top_k=2)
        multi.warm_up([router.sample_step(512, rng) for _ in range(4)])
        single = ExpertPrefetcher(6, 8, top_k=2)
        single.warm_up([router.sample_step(512, rng) for _ in range(4)])
        self.run_steps(multi, router, n_tokens=512, steps=4)
        self.run_steps(single, router, n_tokens=1, steps=4)
        assert (
            single.stats.participation_rate().mean()
            < multi.stats.participation_rate().mean()
        )
