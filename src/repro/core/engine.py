"""The Klotski inference engine facade.

:class:`KlotskiSystem` plugs the expert-aware pipeline, adaptive placement,
and correlation-aware prefetcher into the common system interface;
:class:`KlotskiEngine` adds the offline phase of Figure 6 — planning ``n``
with the constraint-sensitive planner and warming up the correlation table
— and is the main entry point users interact with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.registry import register_system
from repro.compression.sparse_attention import SparseAttentionConfig
from repro.obs import count, span
from repro.systems import InferenceSystem, SystemResult
from repro.core.pipeline import PipelineFeatures, QUANT_BYTES_FACTOR
from repro.core.placement import PlacementConfig, PlacementPlan, plan_placement
from repro.core.planner import IOComputePlanner, PlannerConfig, PlanResult, PlannerStats
from repro.core.prefetcher import ExpertPrefetcher
from repro.routing.workload import Workload
from repro.scenario import Scenario


# Warm-up traces are pure functions of (router config, scenario seed,
# steps, tokens); every system comparing on one scenario re-derives the
# same traces, so share them process-wide (a trace is ~0.5 MB).
_WARMUP_TRACE_MEMO: dict = {}
_WARMUP_TRACE_MEMO_CAP = 16


def clear_warmup_trace_memo() -> None:
    """Drop the process-wide warm-up trace memo (benchmark hygiene)."""
    _WARMUP_TRACE_MEMO.clear()


def warm_up_prefetcher(
    scenario: Scenario,
    prefetcher: ExpertPrefetcher,
    *,
    steps: int = 4,
    tokens_per_step: int = 512,
) -> None:
    """Build the expert correlation table from a pre-run (paper §8:
    wikitext-2 samples at batch size 8, sequence length 512)."""
    oracle = scenario.make_oracle(batch_offset=-1)  # distinct warm-up data
    key = (oracle.config, scenario.seed, steps, tokens_per_step)
    traces = _WARMUP_TRACE_MEMO.get(key)
    if traces is None:
        count("memo.warmup_trace.miss")
        rng = np.random.default_rng(scenario.seed + 17)
        with span("engine.warmup_traces", {"steps": steps}):
            traces = [
                oracle.router.sample_step(tokens_per_step, rng)
                for _ in range(steps)
            ]
        for step in traces:
            step.setflags(write=False)
        if len(_WARMUP_TRACE_MEMO) >= _WARMUP_TRACE_MEMO_CAP:
            _WARMUP_TRACE_MEMO.clear()
        _WARMUP_TRACE_MEMO[key] = traces
    else:
        count("memo.warmup_trace.hit")
    prefetcher.warm_up(traces)


@dataclass(frozen=True)
class KlotskiOptions:
    """User-facing engine options.

    Attributes:
        quantize: 4-bit expert + attention weights (Klotski(q)).
        use_spare_vram: spend spare VRAM on weight residency.
        prefetch_k: experts prefetched per layer (default: the gate's
            top-k).
        path_length: correlation-path depth of the prefetcher.
        warmup_steps: offline prefetcher warm-up steps (0 disables).
        online_update: keep updating the correlation table during a run.
        features: ablation overrides of the pipeline mechanisms.
        sparse_attention: optional sink+window sparse-attention policy.
    """

    quantize: bool = False
    use_spare_vram: bool = True
    prefetch_k: int | None = None  # default: the gate's top-k
    path_length: int = 1
    warmup_steps: int = 4
    online_update: bool = True
    features: PipelineFeatures | None = None  # ablation overrides
    # Optional sink+window sparse attention (§7 "Compression"; the paper's
    # §9.8 future-work lever against multi-batch KV-cache growth).
    sparse_attention: SparseAttentionConfig | None = None


class KlotskiSystem(InferenceSystem):
    """Klotski as a pluggable system (group execution).

    Args:
        options: engine options (default: full Klotski).
        name: display name override (default: ``klotski`` /
            ``klotski(q)`` when quantized).
    """

    sequential = False

    def __init__(self, options: KlotskiOptions | None = None, name: str | None = None):
        self.options = options or KlotskiOptions()
        self.name = name or ("klotski(q)" if self.options.quantize else "klotski")

    def cache_key(self) -> tuple:
        return super().cache_key() + (self.options,)

    def prefetch_k(self, scenario: Scenario) -> int:
        return self.options.prefetch_k or scenario.model.top_k

    def make_features(self, scenario: Scenario) -> PipelineFeatures:
        if self.options.features is not None:
            return self.options.features
        return PipelineFeatures.klotski(quantize=self.options.quantize)

    def make_placement(self, scenario: Scenario, group: Workload) -> PlacementPlan:
        features = self.make_features(scenario)
        prefetch_k = (
            self.prefetch_k(scenario)
            if features.hot_prefetch
            else scenario.model.num_experts
        )
        config = PlacementConfig(
            use_spare_vram=self.options.use_spare_vram,
            prefetch_k=prefetch_k,
            bytes_factor=QUANT_BYTES_FACTOR if features.quantize else 1.0,
        )
        return plan_placement(
            scenario.inventory(), scenario.hardware, group, group.num_batches, config
        )

    def make_sparse_attention(self, scenario: Scenario) -> SparseAttentionConfig:
        return self.options.sparse_attention or SparseAttentionConfig()

    def make_prefetcher(
        self, scenario: Scenario, batch_offset: int = 0
    ) -> ExpertPrefetcher | None:
        if scenario.model.is_dense:
            return None
        features = self.make_features(scenario)
        if not features.hot_prefetch:
            return None
        prefetcher = ExpertPrefetcher(
            scenario.model.num_layers,
            scenario.model.num_experts,
            top_k=scenario.model.top_k,
            path_length=self.options.path_length,
            prefetch_k=self.prefetch_k(scenario),
            online_update=self.options.online_update,
        )
        if self.options.warmup_steps > 0:
            warm_up_prefetcher(scenario, prefetcher, steps=self.options.warmup_steps)
        return prefetcher


@register_system("klotski")
def _make_klotski(**options) -> KlotskiSystem:
    """Registry factory: full Klotski with :class:`KlotskiOptions` kwargs."""
    return KlotskiSystem(KlotskiOptions(**options))


@register_system("klotski(q)")
def _make_klotski_quantized(**options) -> KlotskiSystem:
    """Registry factory: the quantized Klotski(q) variant."""
    options.setdefault("quantize", True)
    return KlotskiSystem(KlotskiOptions(**options), name="klotski(q)")


# repro.api parses a factory's options against ``inspect.unwrap(factory)``:
# both Klotski factories take exactly the KlotskiOptions fields.
_make_klotski.__wrapped__ = _make_klotski_quantized.__wrapped__ = KlotskiOptions


class KlotskiEngine:
    """Offline planning + online execution, per Figure 6.

    Args:
        scenario: the evaluation point to plan and run against.
        options: engine options (default: full Klotski).
        planner_config: override for the constraint-sensitive planner.

    >>> engine = KlotskiEngine(scenario)
    >>> plan = engine.plan()          # constraint-sensitive n
    >>> result = engine.run()         # uses the planned n
    """

    def __init__(
        self,
        scenario: Scenario,
        options: KlotskiOptions | None = None,
        planner_config: PlannerConfig | None = None,
    ):
        self.scenario = scenario
        self.options = options or KlotskiOptions()
        self.system = KlotskiSystem(self.options)
        self._planner_config = planner_config

    def planner(self) -> IOComputePlanner:
        k = self.system.prefetch_k(self.scenario)
        oracle = self.scenario.make_oracle()
        token_stats = PlannerStats.from_popularity(
            oracle.router.popularity,
            k,
            self.scenario.workload.total_sequences,
            self.scenario.model.top_k,
        )
        # Per-step concentration caps the distinct active experts (the
        # router's pool model; Figure 15a's "Active 5~8 experts").
        coverage, pool_mean = oracle.router.routing_stats(k)
        stats = PlannerStats(
            hot_coverage=coverage,
            expected_active=min(token_stats.expected_active, pool_mean),
        )
        sparse = self.options.sparse_attention
        config = self._planner_config or PlannerConfig(
            prefetch_k=k,
            quantize_bytes_factor=(
                QUANT_BYTES_FACTOR if self.options.quantize else 1.0
            ),
            sparse_context_cap=(
                sparse.sinks + sparse.window if sparse and sparse.enabled else None
            ),
        )
        return IOComputePlanner(self.scenario.cost_model(), stats, config)

    def plan(self) -> PlanResult:
        """Choose the batch-group size ``n`` for the current workload."""
        return self.planner().plan(self.scenario.workload)

    def run(self, n: int | None = None) -> SystemResult:
        """Execute with group size ``n`` (default: the planner's choice)."""
        if n is None:
            n = self.plan().n
        workload = self.scenario.workload.with_batches(n)
        return self.system.run(self.scenario.with_workload(workload))
