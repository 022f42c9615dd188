"""Adaptive tensor placement across VRAM / DRAM / disk (paper §6.1).

Placement policy, in paper order:

1. VRAM keeps the working set: the tensors of the layer being computed,
   prefetch buffers for the next layer, per-batch activations, and (when it
   fits) the KV cache. Spare VRAM is then spent on making weight tensors
   *resident* — attention and gate layers first (they are needed on every
   forward pass), then experts by layer — removing their I/O entirely
   ("Further Use Memory", Figure 12's green line).
2. DRAM is prioritized for experts, because gate-selected experts must be
   fetched on demand with the lowest possible latency.
3. Overflow goes to disk; the pipeline builder issues each spilled
   weight's disk -> DRAM read just before its DRAM -> VRAM transfer.
4. ``pin_memory`` is used when DRAM has headroom, speeding CPU-GPU copies.

Accounting note: the *weight buffer* part of the working set (double-
buffered layer weights, in-flight cold experts) is reserved when choosing
residency but is **not** pre-charged to the VRAM pool at run time — the
executor charges the actual transfer allocations instead. Only activations
and KV staging buffers are charged statically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfMemoryError
from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig
from repro.model.tensors import ATTN, EXPERT, GATE, TensorInventory
from repro.routing.workload import Workload

VRAM, DRAM, DISK = "vram", "dram", "disk"

# Crude activation inflation over raw hidden states (intermediates, norms).
ACTIVATION_MULTIPLIER = 4.0


@dataclass
class PlacementPlan:
    """Assignment of every weight tensor to a memory level, plus policy."""

    location: dict[str, str]
    kv_level: str
    pinned: bool
    working_reserve_bytes: int  # full reserve used when budgeting residency
    activation_reserve_bytes: int  # statically charged part (acts + KV staging)
    resident_bytes: int = 0
    notes: tuple[str, ...] = ()

    def level_of(self, tensor_id: str) -> str:
        return self.location[tensor_id]

    def is_resident(self, tensor_id: str) -> bool:
        return self.location.get(tensor_id) == VRAM

    def bytes_at(self, inventory: TensorInventory, level: str) -> int:
        return sum(
            inventory.nbytes(tid) for tid, lvl in self.location.items() if lvl == level
        )


@dataclass(frozen=True)
class PlacementConfig:
    """Placement policy knobs."""

    use_spare_vram: bool = True  # False = "Complete Offloading" (Fig 12 blue)
    prefetch_k: int = 2
    bytes_factor: float = 1.0  # quantization shrinks transfers and buffers
    # DRAM kept free for the OS / pinned-buffer headroom.
    dram_reserve_fraction: float = 0.05


@dataclass(frozen=True)
class WorkingSet:
    """The VRAM working-set breakdown for one scenario."""

    weight_buffers: int  # double-buffered layers + in-flight cold experts
    activations: int  # per-batch activation peak (prefill width)
    kv_staging: int  # streamed KV slices (DRAM-resident cache mode)

    @property
    def total(self) -> int:
        return self.weight_buffers + self.activations + self.kv_staging


def working_set(
    model: ModelConfig,
    workload: Workload,
    config: PlacementConfig,
) -> WorkingSet:
    """VRAM bytes that must stay available for computation at any instant."""
    factor = config.bytes_factor
    # Double-buffered layer weights: current + prefetched next layer.
    layer_weights = model.attention_bytes() * factor + model.gate_bytes()
    layer_weights += config.prefetch_k * model.expert_bytes() * factor
    weight_buffers = 2 * layer_weights
    # On-demand cold experts in flight (up to the remaining experts).
    cold = max(0, model.num_experts - config.prefetch_k)
    weight_buffers += cold * model.expert_bytes() * factor

    act_tokens = workload.batch_size * workload.prompt_len
    activations = int(
        act_tokens * model.hidden_size * model.dtype_bytes * ACTIVATION_MULTIPLIER
    )

    # KV staging: Algorithm 1 streams the cache per (layer, batch); keep a
    # few per-layer-per-batch slices buffered (current plus prefetched).
    context = workload.prompt_len + workload.gen_len
    kv_slice = workload.batch_size * context * model.kv_bytes_per_token()
    kv_staging = 4 * kv_slice
    return WorkingSet(int(weight_buffers), activations, int(kv_staging))


def plan_placement(
    inventory: TensorInventory,
    hardware: HardwareSpec,
    workload: Workload,
    n: int,
    config: PlacementConfig | None = None,
) -> PlacementPlan:
    """Produce a :class:`PlacementPlan` for the given scenario."""
    config = config or PlacementConfig()
    model = inventory.config
    notes: list[str] = []

    ws = working_set(model, workload, config)
    vram_budget = hardware.usable_vram() - ws.total
    if vram_budget < 0:
        raise OutOfMemoryError(VRAM, ws.total, hardware.usable_vram())

    # KV cache: VRAM when the entire group's cache fits in half the spare,
    # otherwise DRAM with per-batch streaming.
    context = workload.prompt_len + workload.gen_len
    kv_total = model.kv_bytes(workload.batch_size * n * context)
    kv_level = DRAM
    activation_reserve = ws.activations + ws.kv_staging
    if config.use_spare_vram and kv_total <= vram_budget // 2:
        kv_level = VRAM
        vram_budget -= kv_total
        # Dynamic KV allocations replace the staging buffers.
        activation_reserve = ws.activations
        notes.append("KV cache resident in VRAM")

    location: dict[str, str] = {}
    resident_bytes = 0

    def try_vram(tensor_id: str, nbytes: int) -> bool:
        nonlocal vram_budget, resident_bytes
        if not config.use_spare_vram or nbytes > vram_budget:
            return False
        location[tensor_id] = VRAM
        vram_budget -= nbytes
        resident_bytes += nbytes
        return True

    # Residency priority: embeddings, attention, gates, then experts by layer.
    ordered = sorted(
        inventory,
        key=lambda s: (
            {"embed": 0, ATTN: 1, GATE: 2, EXPERT: 3}.get(s.kind, 4),
            s.layer,
            s.expert,
        ),
    )
    overflow = []
    for spec in ordered:
        nbytes = int(
            spec.nbytes * (config.bytes_factor if spec.kind in (ATTN, EXPERT) else 1)
        )
        if not try_vram(spec.tensor_id, nbytes):
            overflow.append((spec, nbytes))

    # DRAM: the small, every-step non-expert tensors are pinned into DRAM
    # first, then experts fill the remainder (the paper's "prioritize CPU
    # memory for experts" — experts take all DRAM that is left, and only
    # expert tensors ever spill to disk, staged through the layer window).
    dram_budget = int(hardware.dram_bytes * (1 - config.dram_reserve_fraction))
    overflow.sort(key=lambda item: (item[0].kind == EXPERT, item[0].layer, item[0].expert))
    disk_bytes = 0
    for spec, nbytes in overflow:
        if nbytes <= dram_budget:
            location[spec.tensor_id] = DRAM
            dram_budget -= nbytes
        else:
            location[spec.tensor_id] = DISK
            disk_bytes += nbytes
    if disk_bytes:
        notes.append(f"{disk_bytes / (1 << 30):.1f} GiB of weights spilled to disk")

    pinned = dram_budget > hardware.dram_bytes * 0.1
    return PlacementPlan(
        location=location,
        kv_level=kv_level,
        pinned=pinned,
        working_reserve_bytes=ws.total,
        activation_reserve_bytes=activation_reserve,
        resident_bytes=resident_bytes,
        notes=tuple(notes),
    )
