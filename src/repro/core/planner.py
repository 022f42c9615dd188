"""Constraint-sensitive I/O-compute planner (paper §7).

The planner finds the smallest batch-group size ``n`` such that the
pipeline of Figure 9 has no bubbles, by checking the four inequalities the
paper derives from the points where each tensor must be resident:

* (4) gate ready when gate compute starts:
  ``n * t_c_A >= t_io_G``
* (5) K hot experts ready when hot-expert compute starts:
  ``n * (t_c_A + t_c_G) >= t_io_G + K * t_io_E``
* (6) first cold expert ready when its compute starts:
  ``n * (t_c_A + t_c_G) + t_c_hotE >= t_io_G + (K + 1) * t_io_E``
* (7) next attention weights ready when the next layer starts:
  ``n * (t_c_A + t_c_G) + t_c_hotE + sum_i t_c_Ei
  >= t_io_G + (K + len(Q)) * t_io_E + t_io_A``

Timings come from the cost model ("measurement of the current hardware
capability", cached per environment in the paper); the hot-token coverage
and the cold-expert queue length ``len(Q)`` come from routing statistics.
``n`` is the smallest feasible integer (``n = ceil(x)``); memory constraints
(Equation 3) cap ``n`` — reproducing the paper's manual cap of n=10 for
Mixtral-8x22B in Environment 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.costmodel import CostModel
from repro.routing.popularity import expected_active_experts, expected_topk_coverage
from repro.routing.workload import Workload


@dataclass(frozen=True)
class PlannerStats:
    """Routing statistics the planner needs, per layer averaged."""

    hot_coverage: float  # fraction of routed tokens on the K hot experts
    expected_active: float  # expected distinct activated experts per layer

    @classmethod
    def from_popularity(
        cls, popularity: np.ndarray, k: int, n_tokens: int, top_k: int
    ) -> "PlannerStats":
        coverages = [expected_topk_coverage(row, k) for row in popularity]
        actives = [
            expected_active_experts(row, n_tokens, top_k) for row in popularity
        ]
        return cls(float(np.mean(coverages)), float(np.mean(actives)))


@dataclass(frozen=True)
class PlanResult:
    """Outcome of planning: the chosen n plus diagnostics."""

    n: int
    feasible: bool
    binding_constraint: str
    margins: dict[str, float] = field(default_factory=dict)
    memory_capped: bool = False
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class PlannerConfig:
    n_max: int = 64
    prefetch_k: int | None = None  # default: the gate's top-k
    quantize_bytes_factor: float = 1.0
    pinned: bool = True
    kv_in_vram: bool = False
    # Fraction of DRAM the KV cache may occupy before n is capped.
    kv_dram_fraction: float = 0.6
    # Phase to plan against. "average" weighs the prefill pass and the
    # decode steps by their frequency (one prefill + gen_len decodes), which
    # reflects the generation-time mix the throughput metric measures;
    # "decode" / "prefill" plan against one phase only.
    phase: str = "average"
    # Sink+window sparse attention caps the attended context (and hence the
    # KV bytes the memory cap accounts for).
    sparse_context_cap: int | None = None


class IOComputePlanner:
    """Solves the inequality system for the minimal bubble-free ``n``."""

    def __init__(
        self,
        cost_model: CostModel,
        stats: PlannerStats,
        config: PlannerConfig | None = None,
    ):
        self.cost = cost_model
        self.stats = stats
        self.config = config or PlannerConfig()

    # ---- constraint evaluation ------------------------------------------------

    def _timings(self, workload: Workload, n: int) -> dict[str, float]:
        cfg = self.config
        model = self.cost.model
        k_prefetch = cfg.prefetch_k or model.top_k
        bs = workload.batch_size
        context = workload.prompt_len + workload.gen_len // 2
        if cfg.sparse_context_cap is not None:
            context = min(context, cfg.sparse_context_cap)
        if cfg.phase == "decode":
            new_tokens = 1
        elif cfg.phase == "prefill":
            new_tokens = workload.prompt_len
        else:  # per-step average over one prefill pass + gen_len decodes
            new_tokens = max(
                1, (workload.prompt_len + workload.gen_len) // (1 + workload.gen_len)
            )
        t_c_a = self.cost.t_c_A(bs, new_tokens, context)
        t_c_g = self.cost.t_c_G(bs, new_tokens)
        # Routed token units across the group (each token picks top_k experts).
        routed = n * bs * new_tokens * model.top_k
        hot_tokens = self.stats.hot_coverage * routed
        cold_tokens = routed - hot_tokens
        len_q = max(0.0, self.stats.expected_active - k_prefetch)
        factor = cfg.quantize_bytes_factor
        pinned = cfg.pinned
        t_c_hot = self.cost.t_c_E(max(1.0, hot_tokens / max(1, k_prefetch))) * k_prefetch
        cold_each = cold_tokens / len_q if len_q > 0 else 0.0
        t_c_cold_sum = self.cost.t_c_E(max(1.0, cold_each)) * len_q if len_q else 0.0
        return {
            "K": float(k_prefetch),
            "len_q": len_q,
            "t_c_A": t_c_a,
            "t_c_G": t_c_g,
            "t_c_hotE": t_c_hot,
            "t_c_coldE_sum": t_c_cold_sum,
            "t_io_A": self.cost.t_io_A(pinned=pinned, bytes_factor=factor),
            "t_io_G": self.cost.t_io_G(pinned=pinned),
            "t_io_E": self.cost.t_io_E(pinned=pinned, bytes_factor=factor),
        }

    def constraint_margins(self, workload: Workload, n: int) -> dict[str, float]:
        """LHS - RHS of inequalities (4)-(7); feasible when all >= 0."""
        t = self._timings(workload, n)
        attn_phase = n * t["t_c_A"]
        gate_phase = n * (t["t_c_A"] + t["t_c_G"])
        return {
            "ineq4_gate_ready": attn_phase - t["t_io_G"],
            "ineq5_hot_ready": gate_phase - (t["t_io_G"] + t["K"] * t["t_io_E"]),
            "ineq6_first_cold_ready": (
                gate_phase + t["t_c_hotE"] - (t["t_io_G"] + (t["K"] + 1) * t["t_io_E"])
            ),
            "ineq7_next_attn_ready": (
                gate_phase
                + t["t_c_hotE"]
                + t["t_c_coldE_sum"]
                - (
                    t["t_io_G"]
                    + (t["K"] + t["len_q"]) * t["t_io_E"]
                    + t["t_io_A"]
                )
            ),
        }

    # ---- memory cap --------------------------------------------------------------

    def memory_cap(self, workload: Workload) -> int:
        """Largest n whose KV cache fits the configured budget."""
        model = self.cost.model
        hw = self.cost.hardware
        context = workload.prompt_len + workload.gen_len
        if self.config.sparse_context_cap is not None:
            context = min(context, self.config.sparse_context_cap)
        kv_per_batch = model.kv_bytes(workload.batch_size * context)
        if kv_per_batch <= 0:
            return self.config.n_max
        if self.config.kv_in_vram:
            budget = hw.usable_vram() // 2
        else:
            budget = int(hw.dram_bytes * self.config.kv_dram_fraction)
        return max(1, int(budget // kv_per_batch))

    # ---- entry point ---------------------------------------------------------------

    def plan(self, workload: Workload) -> PlanResult:
        """Choose the minimal feasible ``n`` (memory-capped)."""
        cap = min(self.config.n_max, self.memory_cap(workload))
        notes: list[str] = []
        if cap < self.config.n_max:
            notes.append(f"n capped at {cap} by KV-cache memory budget")
        last_margins: dict[str, float] = {}
        for n in range(1, cap + 1):
            margins = self.constraint_margins(workload, n)
            last_margins = margins
            if all(v >= 0 for v in margins.values()):
                return PlanResult(
                    n=n,
                    feasible=True,
                    binding_constraint=min(margins, key=margins.get),
                    margins=margins,
                    memory_capped=False,
                    notes=tuple(notes),
                )
        binding = min(last_margins, key=last_margins.get) if last_margins else "none"
        notes.append(
            "no bubble-free n within cap; returning capped n with residual bubbles"
        )
        return PlanResult(
            n=cap,
            feasible=False,
            binding_constraint=binding,
            margins=last_margins,
            memory_capped=True,
            notes=tuple(notes),
        )
