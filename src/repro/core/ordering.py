"""Expert computation ordering (paper §5, "minimizing intra-layer bubbles").

Given the gate's routing for a batch group, Klotski re-groups expert
computation *by expert* rather than by batch and orders it:

1. prefetched (hot) experts first, busiest first — their weights are
   already in VRAM, and their long aggregate compute buys time for cold
   expert transfers;
2. cold experts afterwards, in the order their transfers were issued (they
   complete in that order on the FIFO PCIe stream);
3. experts with no routed tokens are skipped entirely (no wasted I/O), and
   each expert is freed immediately after its last computation.
"""

from __future__ import annotations

import numpy as np


def ordered_step_experts(
    counts: np.ndarray, in_vram: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Order the activated experts of every layer of a step at once.

    ``counts`` is ``[layers, E]`` tokens per expert across the group and
    ``in_vram`` the ``[layers, E]`` mask of experts prefetched or pinned
    in VRAM. One stable sort orders each layer: in-VRAM experts busiest
    first (ties by id) so their long aggregate compute buys time for
    cold transfers, then cold experts (active, not in VRAM) in ascending
    id — the order the builder issues their on-demand transfers in.

    Returns:
        A ``[layers, E]`` array whose row ``l`` starts with the ids of
        layer ``l``'s experts with routed tokens in execution order, and
        each layer's count of those experts.
    """
    counts = np.asarray(counts)
    active = counts > 0
    key = np.where(active & in_vram, -counts, np.where(active, 0, 1))
    return np.argsort(key, axis=1, kind="stable"), active.sum(axis=1)


def ordered_active_experts(
    counts: np.ndarray,
    prefetched: list[int],
    *,
    resident: set[int] = frozenset(),
    adjust: bool = True,
) -> list[int]:
    """Order the activated experts of one layer for execution.

    ``counts`` (an array or an int sequence) is tokens-per-expert from
    the gate across the whole group; ``prefetched`` the hot experts whose
    transfer was issued during the attention phase, and ``resident`` the
    experts pinned in VRAM. With ``adjust=False`` the order is plain
    ascending expert id (the unorchestrated baseline of the Table 3
    ablation); otherwise it is :func:`ordered_step_experts` of the layer.

    Returns:
        The ids of the experts with routed tokens, in execution order.
    """
    counts = np.asarray(counts)
    if not adjust:
        return np.flatnonzero(counts).tolist()
    in_vram = np.zeros(counts.shape, dtype=bool)
    in_vram[list(set(prefetched) | set(resident))] = True
    order, active = ordered_step_experts(counts[None], in_vram[None])
    return order[0, : active[0]].tolist()
