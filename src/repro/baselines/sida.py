"""SiDA-like baseline: offline data-aware expert prediction (related work).

SiDA (Du et al., 2023 — reference [8] of the paper) trains an offline
hash-network predictor that anticipates expert activations from the input
alone, reporting >90 % prefetch accuracy. We model that as a predictor
whose per-layer hot-expert forecast matches the *true* upcoming routing
with configurable ``accuracy`` (the remainder falls back to the learned
marginal), on top of expert-only offloading like MoE-Infinity.

This is the "accurate prefetching is not enough" comparison point from
§3.1: even with near-perfect prediction, single-batch pipelines stall,
because one expert's transfer takes longer than the computation it covers.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.placement import expert_offload_placement
from repro.core.pipeline import PipelineFeatures
from repro.core.placement import PlacementPlan
from repro.core.prefetcher import ExpertPrefetcher
from repro.routing.trace import top_experts
from repro.routing.workload import Workload
from repro.scenario import Scenario
from repro.systems import InferenceSystem


class OfflinePredictorPrefetcher(ExpertPrefetcher):
    """Prefetcher emulating an offline-trained expert predictor.

    Precomputes the (deterministic) routing stream that the scheduler will
    replay and predicts each layer's true top-K experts with probability
    ``accuracy`` per expert slot, otherwise falling back to the marginal
    table — i.e. a fixed-accuracy oracle, the idealization of SiDA's
    hash-network predictor.
    """

    def __init__(
        self,
        scenario: Scenario,
        group: Workload,
        *,
        batch_offset: int = 0,
        accuracy: float = 0.9,
        prefetch_k: int | None = None,
    ):
        model = scenario.model
        super().__init__(
            model.num_layers,
            model.num_experts,
            top_k=model.top_k,
            prefetch_k=prefetch_k or model.top_k,
        )
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        self.accuracy = accuracy
        self._oracle = scenario.make_oracle(batch_offset=batch_offset)
        self._group = group
        self._rng = np.random.default_rng(scenario.seed + 101 * (batch_offset + 1))
        self._step = -1
        self._true_hot: list[list[int]] = []

    def predict_step(self, primaries: np.ndarray) -> list[list[int]]:
        fallbacks = super().predict_step(primaries)
        self._step += 1
        # The builder reads the same memoized routing with n == 1.
        routing = self._oracle.step_routing(self._step, self._group)
        totals = routing.stats(1, self.table.num_experts).totals
        self._true_hot = top_experts(totals, self.prefetch_k).tolist()
        return [self._pick(layer, fallback) for layer, fallback in enumerate(fallbacks)]

    def predict_first(self) -> list[int]:
        # The next step's layer 0 is prefetched before its routing is
        # known: the current step's truth stands in for it.
        return self._pick(0, super().predict_first())

    def _pick(self, layer: int, fallback: list[int]) -> list[int]:
        """``layer``'s forecast: each true hot expert with probability
        ``accuracy``, else the fallback's expert in that slot."""
        if layer >= len(self._true_hot):
            return fallback
        chosen: list[int] = []
        for slot, true_expert in enumerate(self._true_hot[layer]):
            if self._rng.random() < self.accuracy:
                pick = true_expert
            else:
                pick = fallback[min(slot, len(fallback) - 1)] if fallback else slot
            if pick not in chosen:
                chosen.append(pick)
        for expert in fallback:
            if len(chosen) >= self.prefetch_k:
                break
            if expert not in chosen:
                chosen.append(expert)
        return chosen[: self.prefetch_k]


class SiDASystem(InferenceSystem):
    """Single-batch expert-only offloading with a high-accuracy offline
    predictor — faster than MoE-Infinity, still far from Klotski."""

    name = "sida"
    sequential = True
    fresh_prefetcher_per_batch = True

    def __init__(self, accuracy: float = 0.9):
        self.accuracy = accuracy

    def cache_key(self) -> tuple:
        return super().cache_key() + (self.accuracy,)

    def make_features(self, scenario: Scenario) -> PipelineFeatures:
        return PipelineFeatures(overlap=True, hot_prefetch=True, adjust_order=False)

    def make_placement(self, scenario: Scenario, group: Workload) -> PlacementPlan:
        return expert_offload_placement(scenario, group, cache_fraction=0.10)

    def make_prefetcher(
        self, scenario: Scenario, batch_offset: int = 0
    ) -> ExpertPrefetcher | None:
        if scenario.model.is_dense:
            return None
        group = Workload(
            scenario.workload.batch_size,
            1,
            scenario.workload.prompt_len,
            scenario.workload.gen_len,
        )
        prefetcher = OfflinePredictorPrefetcher(
            scenario, group, batch_offset=batch_offset, accuracy=self.accuracy
        )
        # Marginal fallback comes from a short warm-up.
        from repro.core.engine import warm_up_prefetcher

        warm_up_prefetcher(scenario, prefetcher, steps=2)
        return prefetcher


def _register_system() -> None:
    from repro.api.registry import register_system

    register_system(SiDASystem.name)(SiDASystem)


_register_system()
