"""The built-in optimizer passes.

Three local rewrites over the schedule IR, in the spirit of SAMPO-style
composable local optimizers: each proposes a candidate the pipeline then
machine-checks against the ``repro.validation`` invariants before
accepting.

* ``coalesce-transfers`` — merge back-to-back transfer ops on one
  stream whose dependency cones allow it (fewer ops, identical timing);
* ``retime-prefetch`` — reorder each transfer stream by when its
  consumers need the data, hoisting urgent prefetches ahead of idle
  ones so compute bubbles shrink;
* ``fill-bubbles`` — greedy list scheduling over the whole dep graph,
  issuing whichever ready op can start earliest on its resource.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_pass
from repro.passes.base import PassContext, PassResult, SchedulePass
from repro.passes.rewrite import (
    greedy_order,
    order_groups,
    permute_schedule,
    rebuild_schedule,
)
from repro.runtime.schedule import DISK_IO, H2D, H2D_OD, RESOURCE_CODES

# The streams carrying weight/KV movement: the paper's prefetch,
# on-demand expert, and disk staging lanes.
TRANSFER_CODES = frozenset(
    (RESOURCE_CODES[H2D], RESOURCE_CODES[H2D_OD], RESOURCE_CODES[DISK_IO])
)


@register_pass("coalesce-transfers")
class CoalesceTransfersPass(SchedulePass):
    """Merge gapless same-stream transfer chains into single ops.

    Two consecutive ops of one transfer stream merge when the second
    starts exactly when the first ends, its external dependencies were
    already satisfied at the chain's start, and nothing but the chain
    itself consumes the first op's completion. Under those conditions
    the merged op starts and ends at the same instants, so the rewrite
    is timing-neutral by construction (the pipeline still re-proves it).
    """

    name = "coalesce-transfers"
    description = "merge adjacent same-resource transfer ops"

    def apply(self, ctx: PassContext) -> PassResult | None:
        schedule = ctx.schedule
        n = len(schedule)
        deps = schedule._deps
        res = np.array(schedule._res, dtype=np.int64)
        starts, ends = ctx.timeline.starts, ctx.timeline.ends
        dependents = np.bincount(schedule.deps_csr()[1], minlength=n)
        start_at, end_at = starts.tolist(), ends.tolist()

        chain_of = [-1] * n  # op -> chain head (chain members only)
        chains: dict[int, list[int]] = {}
        for code in TRANSFER_CODES:
            stream = np.flatnonzero(res == code)
            prev, nxt = stream[:-1], stream[1:]
            # A pair can merge only if the stream did not idle between
            # them and at most one op (then it must be the next one)
            # waits on prev's completion; the chain test below runs on
            # these candidates only, in stream order.
            ok = (starts[nxt] == ends[prev]) & (dependents[prev] <= 1)
            for prev_op, op in zip(prev[ok].tolist(), nxt[ok].tolist()):
                if dependents[prev_op] and prev_op not in deps[op]:
                    continue  # something else waits on prev's completion
                # Chains grow along consecutive stream ops, so the
                # candidate's predecessor is always the current chain tail.
                head = chain_of[prev_op] if chain_of[prev_op] != -1 else prev_op
                head_start = start_at[head]
                if any(
                    d != head and chain_of[d] != head and end_at[d] > head_start
                    for d in deps[op]
                ):
                    continue  # an external dep would delay the merged start
                chains.setdefault(head, [head]).append(op)
                chain_of[head] = head
                chain_of[op] = head

        if not chains:
            return None
        # Non-head chain members fold into their head's group.
        groups = [
            tuple(chains[op]) if op in chains else (op,)
            for op, head in enumerate(chain_of)
            if head == -1 or head == op
        ]
        # Chains on different streams interleave in op-id space, so head
        # order alone can put a merged group before one it depends on.
        ordered = order_groups(schedule, groups)
        if ordered is None:
            return None
        return PassResult(*rebuild_schedule(schedule, ordered))


@register_pass("retime-prefetch")
class RetimePrefetchPass(SchedulePass):
    """Reorder transfer streams by consumer need time.

    Each transfer op's urgency is the earliest baseline start among the
    ops depending on it; streams re-issue in urgency order (compute
    streams keep their original order). Prefetches whose consumers stall
    the GPU move ahead of transfers nothing is waiting for, hoisting
    them into compute bubbles. Memory safety is not assumed: the
    pipeline replays the candidate's pool usage and rejects it if the
    peak exceeds capacity.
    """

    name = "retime-prefetch"
    description = "hoist urgent prefetch transfers ahead of idle ones"

    def apply(self, ctx: PassContext) -> PassResult | None:
        schedule = ctx.schedule
        n = len(schedule)
        dep_ptr, dep_ids = schedule.deps_csr()
        dep_owner = np.repeat(np.arange(n), np.diff(dep_ptr))
        need = np.full(n, np.inf)
        np.minimum.at(need, dep_ids, ctx.timeline.starts[dep_owner])
        transfer = np.isin(np.array(schedule._res), list(TRANSFER_CODES))
        # Compute streams rank 0.0 everywhere, so they stay in issue order.
        order = greedy_order(schedule, np.where(transfer, need, 0.0))
        if order == list(range(n)):
            return None
        return PassResult(*permute_schedule(schedule, order))


@register_pass("fill-bubbles")
class FillBubblesPass(SchedulePass):
    """Greedy bubble-filling reordering of every resource stream.

    Event-driven list scheduling over the CSR dep graph: among the ops
    whose dependencies have completed, issue the one that can start
    earliest on its resource (ties broken by resource then original id).
    Ready work therefore moves into idle slots instead of queueing
    behind unrelated ops issued earlier.
    """

    name = "fill-bubbles"
    description = "move ready ops earlier on idle resources"

    def apply(self, ctx: PassContext) -> PassResult | None:
        schedule = ctx.schedule
        n = len(schedule)
        order = greedy_order(schedule)
        if order == list(range(n)):
            return None
        return PassResult(*permute_schedule(schedule, order))
