"""Placement policies of the baseline systems.

Two families:

* **full-offload placements** (Accelerate / FastGen / FlexGen) reuse
  Klotski's adaptive placement with whole-MoE-layer prefetch buffers —
  these systems can offload any tensor, so they never OOM, only slow down;
* **expert-only offloading** (MoE-Infinity / Fiddler / Mixtral-offloading)
  keeps all non-expert tensors *and the KV cache* resident in VRAM and only
  streams experts. That is why the paper observes them OOM at large batch
  sizes on Mixtral-8x22B/RTX 3090 (§9.2): the resident set grows with the
  KV cache until it no longer fits.
"""

from __future__ import annotations

from repro.core.placement import (
    ACTIVATION_MULTIPLIER,
    PlacementConfig,
    PlacementPlan,
    plan_placement,
)
from repro.errors import OutOfMemoryError
from repro.model.tensors import EXPERT, expert_id
from repro.routing.workload import Workload
from repro.scenario import Scenario

VRAM, DRAM, DISK = "vram", "dram", "disk"


def full_offload_placement(
    scenario: Scenario, group: Workload, *, bytes_factor: float = 1.0
) -> PlacementPlan:
    """Adaptive placement with buffers sized for whole-MoE-layer prefetch."""
    config = PlacementConfig(
        use_spare_vram=True,
        prefetch_k=scenario.model.num_experts,
        bytes_factor=bytes_factor,
    )
    return plan_placement(
        scenario.inventory(), scenario.hardware, group, group.num_batches, config
    )


def expert_offload_placement(
    scenario: Scenario,
    group: Workload,
    *,
    cache_experts_min: int = 2,
    cache_fraction: float = 0.15,
    bytes_factor: float = 1.0,
) -> PlacementPlan:
    """Expert-only offloading with an in-VRAM expert cache.

    Raises :class:`OutOfMemoryError` when the mandatory resident set
    (non-expert weights + KV cache + activations + in-flight experts)
    exceeds VRAM — the simulated counterpart of the CUDA OOM the paper
    reports for these systems at large batch sizes.
    """
    model = scenario.model
    hardware = scenario.hardware
    inventory = scenario.inventory()
    location: dict[str, str] = {}

    resident_bytes = 0
    for spec in inventory:
        if spec.kind == EXPERT:
            location[spec.tensor_id] = DRAM
        else:
            location[spec.tensor_id] = VRAM
            resident_bytes += spec.nbytes

    context = group.prompt_len + group.gen_len
    kv_total = model.kv_bytes(group.batch_size * context)
    # HF-style activation footprint: hidden-state intermediates plus the
    # materialized attention score matrix of the prefill.
    act = int(
        group.batch_size
        * group.prompt_len
        * model.hidden_size
        * model.dtype_bytes
        * ACTIVATION_MULTIPLIER
    )
    act += int(
        group.batch_size * model.num_heads * group.prompt_len**2 * model.dtype_bytes
    )
    # On-demand experts in flight (worst case: all activated at one layer).
    in_flight = model.num_experts * int(model.expert_bytes() * bytes_factor)
    cache_min = cache_experts_min * int(model.expert_bytes() * bytes_factor)

    required = resident_bytes + kv_total + act + in_flight + cache_min
    capacity = hardware.usable_vram()
    if required > capacity:
        raise OutOfMemoryError(VRAM, required, capacity)

    # Fill the expert cache with the globally hottest experts per layer.
    spare = capacity - required + cache_min
    cache_budget = max(cache_min, int(capacity * cache_fraction))
    cache_budget = min(cache_budget, spare)
    popularity = scenario.make_oracle().router.popularity
    ranked: list[tuple[float, int, int]] = []
    for layer in range(model.num_layers):
        for expert in range(model.num_experts):
            ranked.append((-popularity[layer][expert], layer, expert))
    ranked.sort()
    cached_bytes = 0
    expert_nbytes = int(model.expert_bytes() * bytes_factor)
    for _, layer, expert in ranked:
        if cached_bytes + expert_nbytes > cache_budget:
            break
        location[expert_id(layer, expert)] = VRAM
        cached_bytes += expert_nbytes

    return PlacementPlan(
        location=location,
        kv_level=VRAM,
        pinned=True,
        working_reserve_bytes=kv_total + act + in_flight,
        activation_reserve_bytes=act,
        resident_bytes=resident_bytes + cached_bytes,
        notes=(f"expert cache: {cached_bytes / (1 << 30):.1f} GiB resident",),
    )
