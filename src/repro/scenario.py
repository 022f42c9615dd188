"""Scenario: one (model, hardware, workload, routing) evaluation point.

Every system in a comparison is run against the same scenario object, which
pins the routing statistics (seed, skew, correlation) so that scheduling is
the only variable — the simulation analogue of feeding all baselines the
same wikitext-103 samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hardware.costmodel import CostModel
from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig
from repro.model.tensors import TensorInventory
from repro.routing.oracle import SyntheticOracle
from repro.routing.synthetic import RoutingModelConfig
from repro.routing.workload import Workload


@dataclass(frozen=True)
class Scenario:
    """One evaluation point shared by every compared system.

    Attributes:
        model: the model preset under test.
        hardware: the simulated environment.
        workload: batch shape and sequence lengths.
        skew: Zipf skew of the synthetic expert-popularity model.
        correlation: inter-layer routing correlation strength.
        seed: routing RNG seed (pins the token stream).
        prefill_token_cap: cap on sampled prefill tokens per batch.
    """

    model: ModelConfig
    hardware: HardwareSpec
    workload: Workload
    skew: float = 1.1
    correlation: float = 0.55
    seed: int = 0
    prefill_token_cap: int = 2048

    def routing_config(self) -> RoutingModelConfig:
        return RoutingModelConfig(
            num_layers=self.model.num_layers,
            num_experts=self.model.num_experts,
            top_k=self.model.top_k,
            skew=self.skew,
            correlation=self.correlation,
            seed=self.seed,
        )

    def make_oracle(self, *, batch_offset: int = 0) -> SyntheticOracle:
        """A fresh deterministic oracle; ``batch_offset`` distinguishes the
        per-batch streams of single-batch systems (identical statistics)."""
        return SyntheticOracle(
            self.routing_config(),
            prefill_token_cap=self.prefill_token_cap,
            seed=self.seed + 7919 * (batch_offset + 1),
        )

    def cost_model(self) -> CostModel:
        return CostModel(self.model, self.hardware)

    def inventory(self) -> TensorInventory:
        return TensorInventory(self.model)

    def with_workload(self, workload: Workload) -> "Scenario":
        return replace(self, workload=workload)
