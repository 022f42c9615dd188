"""Roofline cost model: layer shapes -> compute and transfer durations.

This is the simulator's stand-in for the paper's "measurement of the current
hardware capability" (§7, planner stage 1): Klotski profiles per-layer
compute and transfer times on the real machine; we derive them from FLOP and
byte counts plus the effective hardware rates in
:mod:`repro.hardware.spec`. The same numbers feed both the planner's
inequalities and the discrete-event executor, so plans and simulated
timelines are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig

# Representative kernel counts per logical op; they set the fixed launch
# overhead which dominates very small ops (e.g. gate GEMVs in decode).
ATTENTION_KERNELS = 10
GATE_KERNELS = 2
EXPERT_KERNELS = 4
NORM_KERNELS = 2


@dataclass(frozen=True)
class OpCost:
    """FLOPs, bytes touched, and kernel count of one compute op."""

    flops: float
    bytes_moved: float
    kernels: int

    def merged(self, other: "OpCost") -> "OpCost":
        return OpCost(
            self.flops + other.flops,
            self.bytes_moved + other.bytes_moved,
            self.kernels + other.kernels,
        )


class CostModel:
    """Compute/transfer durations for one (model, hardware) pair."""

    def __init__(self, model: ModelConfig, hardware: HardwareSpec):
        self.model = model
        self.hardware = hardware
        # transfer_time is pure; the pipeline builder calls it with the same
        # handful of (nbytes, route) shapes tens of thousands of times.
        self._transfer_cache: dict[tuple, float] = {}

    # ---- compute costs -----------------------------------------------------

    def attention_cost(self, batch_size: int, new_tokens: int, context: int) -> OpCost:
        """Cost of one attention layer over ``batch_size`` sequences.

        ``new_tokens`` is tokens processed per sequence this step (prompt
        length in prefill, 1 in decode); ``context`` is the total KV length
        attended to (includes the new tokens).
        """
        cfg = self.model
        tokens = batch_size * new_tokens
        proj_params = cfg.attention_params()
        flops = 2.0 * proj_params * tokens
        # Score and value mixing: q @ k^T and probs @ v over the context.
        flops += 4.0 * batch_size * new_tokens * context * cfg.num_heads * cfg.head_dim
        bytes_moved = cfg.attention_bytes()
        bytes_moved += batch_size * context * cfg.kv_bytes_per_token()  # KV read
        bytes_moved += tokens * cfg.hidden_size * cfg.dtype_bytes * 4  # activations
        return OpCost(flops, bytes_moved, ATTENTION_KERNELS)

    def gate_cost(self, n_tokens: int) -> OpCost:
        cfg = self.model
        flops = 2.0 * cfg.gate_params() * n_tokens
        bytes_moved = cfg.gate_bytes() + n_tokens * cfg.hidden_size * cfg.dtype_bytes
        return OpCost(flops, bytes_moved, GATE_KERNELS)

    def expert_cost(self, n_tokens: int) -> OpCost:
        """Cost of running one expert FFN over ``n_tokens`` routed tokens."""
        cfg = self.model
        flops = 2.0 * cfg.expert_params() * n_tokens
        bytes_moved = cfg.expert_bytes() + 2 * n_tokens * cfg.hidden_size * cfg.dtype_bytes
        return OpCost(flops, bytes_moved, EXPERT_KERNELS)

    def dequant_cost(self, nbytes_dequantized: int) -> OpCost:
        """Cost of dequantizing a weight blob before compute (memory bound)."""
        return OpCost(nbytes_dequantized, 2.0 * nbytes_dequantized, 1)

    # ---- vectorized costs (bit-identical to the scalar path) ----------------

    def expert_times(
        self,
        n_tokens: np.ndarray,
        *,
        quantize: bool = False,
        on_cpu: bool = False,
    ) -> np.ndarray:
        """Seconds per expert for an array of routed token counts.

        Mirrors ``gpu_time(expert_cost(t))`` (or ``cpu_time`` with
        ``on_cpu``) — optionally merged with the dequantization cost —
        elementwise; identical IEEE operation order keeps the result
        bit-equal to the scalar path.
        """
        cfg = self.model
        flops = 2.0 * cfg.expert_params() * n_tokens
        bytes_moved = cfg.expert_bytes() + 2 * n_tokens * cfg.hidden_size * cfg.dtype_bytes
        kernels = EXPERT_KERNELS
        if quantize:
            deq = cfg.expert_bytes()
            flops = flops + deq
            bytes_moved = bytes_moved + 2.0 * deq
            kernels += 1
        device = self.hardware.cpu if on_cpu else self.hardware.gpu
        return device.compute_times(flops, bytes_moved, kernels)

    # ---- durations ---------------------------------------------------------

    def gpu_time(self, cost: OpCost) -> float:
        return self.hardware.gpu.compute_time(cost.flops, cost.bytes_moved, cost.kernels)

    def cpu_time(self, cost: OpCost) -> float:
        return self.hardware.cpu.compute_time(cost.flops, cost.bytes_moved, cost.kernels)

    def transfer_times(self, nbytes: np.ndarray, src: str, dst: str) -> np.ndarray:
        """Unpinned :meth:`transfer_time` for an array of byte counts,
        elementwise in the scalar path's IEEE operation order."""
        link = self.hardware.link_for(src, dst)
        return np.where(nbytes > 0, link.latency_s + nbytes / link.bandwidth_bytes_per_s, 0.0)

    def transfer_time(self, nbytes: int, src: str, dst: str, *, pinned: bool = False) -> float:
        key = (nbytes, src, dst, pinned)
        cached = self._transfer_cache.get(key)
        if cached is not None:
            return cached
        link = self.hardware.link_for(src, dst)
        seconds = link.transfer_time(nbytes)
        if pinned and {src, dst} == {"dram", "vram"}:
            seconds /= self.hardware.pinned_memory_speedup
        self._transfer_cache[key] = seconds
        return seconds

    # ---- planner-facing layer timings (paper §7 notation) -------------------

    def t_c_A(self, batch_size: int, new_tokens: int, context: int) -> float:
        """Compute time of the attention layer for one batch."""
        return self.gpu_time(self.attention_cost(batch_size, new_tokens, context))

    def t_c_G(self, batch_size: int, new_tokens: int) -> float:
        """Compute time of the gate for one batch."""
        return self.gpu_time(self.gate_cost(batch_size * new_tokens))

    def t_c_E(self, n_tokens: int) -> float:
        """Compute time of one expert over ``n_tokens`` tokens."""
        return self.gpu_time(self.expert_cost(n_tokens))

    def t_io_A(self, *, pinned: bool = False, bytes_factor: float = 1.0) -> float:
        return self.transfer_time(
            int(self.model.attention_bytes() * bytes_factor), "dram", "vram", pinned=pinned
        )

    def t_io_G(self, *, pinned: bool = False) -> float:
        return self.transfer_time(self.model.gate_bytes(), "dram", "vram", pinned=pinned)

    def t_io_E(self, *, pinned: bool = False, bytes_factor: float = 1.0) -> float:
        return self.transfer_time(
            int(self.model.expert_bytes() * bytes_factor), "dram", "vram", pinned=pinned
        )

    def t_io_MoE(self, *, pinned: bool = False, bytes_factor: float = 1.0) -> float:
        """Transfer time of one *entire* MoE layer (gate + all experts)."""
        nbytes = self.model.gate_bytes() + int(
            self.model.num_experts * self.model.expert_bytes() * bytes_factor
        )
        return self.transfer_time(nbytes, "dram", "vram", pinned=pinned)
