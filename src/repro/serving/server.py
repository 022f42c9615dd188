"""Batch-group formation: the batching policy and a group's shape.

Larger groups amortize weight I/O but delay early requests — the
throughput/latency trade-off of Figure 11. One machine serving a stream
is a one-replica :class:`~repro.cluster.simulator.ClusterSimulator` fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.requests import Request


@dataclass(frozen=True)
class BatchingConfig:
    """Group-formation policy."""

    batch_size: int = 8
    group_batches: int = 4  # n: batches per dispatched group
    max_wait_s: float = 60.0  # dispatch a partial group after this wait

    def __post_init__(self):
        if self.batch_size < 1 or self.group_batches < 1:
            raise ValueError("batch_size and group_batches must be >= 1")
        if self.max_wait_s <= 0:
            raise ValueError("max_wait_s must be positive")

    @property
    def group_capacity(self) -> int:
        return self.batch_size * self.group_batches


def group_shape(group: list[Request], batch_size: int) -> tuple[int, int, int]:
    """``(n_batches, prompt_len, gen_len)`` of one dispatched batch group.

    The group runs as ``ceil(len(group) / batch_size)`` batches padded to
    the longest prompt and generation length it contains. Shared by the
    serial group policy and the batched engine so both model group
    formation identically.
    """
    n_batches = max(1, -(-len(group) // batch_size))
    prompt = max(r.prompt_len for r in group)
    gen = max(r.gen_len for r in group)
    return n_batches, prompt, gen
