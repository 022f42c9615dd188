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
    ablation).

    Returns:
        The ids of the experts with routed tokens, in execution order.
    """
    counts_list = np.asarray(counts).tolist()
    active = [e for e, c in enumerate(counts_list) if c]
    if not adjust:
        return active
    in_vram_first = set(prefetched) | set(resident)
    ready = [e for e in active if e in in_vram_first]
    cold = [e for e in active if e not in in_vram_first]
    # Hot/resident experts: busiest first so cold transfers get cover.
    # Cold experts keep their transfer (issue) order: ascending expert id
    # is the order the builder issues on-demand transfers in.
    ready.sort(key=lambda e: (-counts_list[e], e))
    return ready + cold
