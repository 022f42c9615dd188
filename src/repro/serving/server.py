"""A dispatched batch group's shape.

A replica serves groups of ``B × n`` requests, its scenario
workload's ``batch_size × num_batches``: larger groups amortize weight
I/O but delay early requests — the throughput/latency trade-off of
Figure 11. One machine serving a stream is a one-replica
:class:`~repro.cluster.simulator.ClusterSimulator` fleet.
"""

from __future__ import annotations

from repro.serving.requests import Request


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
