"""Schedule rewriting primitives shared by the optimizer passes.

Passes never mutate the input :class:`~repro.runtime.schedule.Schedule`;
they describe a rewrite — a reordering and/or grouping of the original
rows — and these helpers rebuild a fresh schedule from it, renumbering
dependency ids and re-attaching memory effects. Every helper returns the
rewritten schedule together with an ``op_map`` (new op id -> tuple of
original op ids) that the :mod:`repro.validation.pass_differential`
harness uses to prove op-multiset conservation.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

from repro.errors import ScheduleError
from repro.runtime.schedule import RESOURCES, Schedule

OpMap = tuple[tuple[int, ...], ...]


def rebuild_schedule(
    schedule: Schedule, groups: Sequence[tuple[int, ...]]
) -> tuple[Schedule, OpMap]:
    """Rebuild ``schedule`` with rows regrouped and reordered.

    Args:
        schedule: the source schedule (left untouched).
        groups: one entry per output op, in the new issue order. Each
            entry lists the original op ids merged into that op (in
            member execution order); singleton groups copy a row. The
            entries must partition ``range(len(schedule))``.

    Returns:
        ``(rewritten, op_map)`` where ``op_map[j] == groups[j]``.

    Raises:
        ScheduleError: when ``groups`` is not a partition or a merged
            group mixes resources.
    """
    n = len(schedule)
    old_to_new = [-1] * n
    for j, group in enumerate(groups):
        for member in group:
            if not 0 <= member < n or old_to_new[member] != -1:
                raise ScheduleError(
                    f"rewrite groups are not a partition (op {member})"
                )
            old_to_new[member] = j
    if sum(len(g) for g in groups) != n:
        raise ScheduleError("rewrite groups do not cover every op")

    res = schedule._res
    dur = schedule._dur
    deps = schedule._deps
    labels = schedule._rendered_labels()
    layers = schedule._layers
    phases = schedule._phases
    batches = schedule._batches

    new_res: list[int] = []
    new_dur: list[float] = []
    new_deps: list[tuple[int, ...]] = []
    new_labels: list[str] = []
    new_layers: list[int] = []
    new_phases: list[str] = []
    new_batches: list[int] = []
    for j, group in enumerate(groups):
        head = group[0]
        code = res[head]
        duration = 0.0
        dep_ids: set[int] = set()
        for member in group:
            if res[member] != code:
                raise ScheduleError(
                    f"merged group {j} mixes resources "
                    f"({RESOURCES[code]} vs {RESOURCES[res[member]]})"
                )
            # Sequential sum: matches the float arithmetic of executing
            # the members back to back, so a gapless merge is bit-neutral.
            duration += dur[member]
            for d in deps[member]:
                mapped = old_to_new[d]
                if mapped != j:
                    dep_ids.add(mapped)
        label = labels[head]
        if len(group) > 1:
            label = f"{label}(+{len(group) - 1})"
        new_res.append(code)
        new_dur.append(duration)
        new_deps.append(tuple(sorted(dep_ids)))
        new_labels.append(label)
        new_layers.append(layers[head])
        new_phases.append(phases[head])
        new_batches.append(batches[head])

    rewritten = Schedule()
    # Re-attach memory effects in the original attachment order (the
    # compiled event stream sorts stably by (op, kind), so per-op replay
    # order is preserved). Merged groups pool their members' effects:
    # allocs move to the merged op's start and frees to its end, which
    # can only raise the replayed peak — never hide an OOM.
    rewritten.extend_raw(
        new_res, new_dur, new_deps, new_labels, new_layers, new_phases,
        new_batches,
        effects=(
            [old_to_new[o] for o in schedule._ev_op],
            schedule._ev_kind,
            schedule._ev_pool,
            schedule._ev_tensor,
            schedule._ev_nbytes,
        ),
    )
    return rewritten, tuple(tuple(g) for g in groups)


def order_groups(
    schedule: Schedule, groups: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]] | None:
    """Topologically order merge groups (None when the condensation cycles).

    Merging interleaved chains can make "emit groups in head-id order"
    produce forward dependencies (chain A's tail depending on chain B's
    member while A's head precedes B's). This orders the condensed group
    DAG with Kahn's algorithm, min-heap keyed by group index, so the
    result is deterministic and every group follows its dependencies.
    Cross-chain dependency cycles (legal in the condensation even though
    the op graph is acyclic) have no valid order; the caller should
    treat None as "nothing to rewrite".
    """
    group_of = {}
    for j, group in enumerate(groups):
        for member in group:
            group_of[member] = j
    indegree = [0] * len(groups)
    successors: list[set[int]] = [set() for _ in groups]
    for j, group in enumerate(groups):
        for member in group:
            for d in schedule._deps[member]:
                dg = group_of[d]
                if dg != j and j not in successors[dg]:
                    successors[dg].add(j)
                    indegree[j] += 1
    heap = [j for j in range(len(groups)) if indegree[j] == 0]
    heapq.heapify(heap)
    topo: list[int] = []
    while heap:
        j = heapq.heappop(heap)
        topo.append(j)
        for succ in sorted(successors[j]):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, succ)
    if len(topo) != len(groups):
        return None
    return [tuple(groups[j]) for j in topo]


def permute_schedule(
    schedule: Schedule, order: Sequence[int]
) -> tuple[Schedule, OpMap]:
    """Renumber ``schedule`` into the issue order ``order``.

    ``order`` must be a permutation of op ids that is topologically valid
    (every op after its dependencies); :meth:`Schedule.freeze` re-checks
    this on the result.
    """
    return rebuild_schedule(schedule, [(i,) for i in order])


def greedy_order(
    schedule: Schedule, priority: Callable[[int, float], tuple]
) -> list[int]:
    """Deterministic event-driven list scheduling over the dep graph.

    Re-derives a global issue order by simulating the executor's FIFO
    semantics: repeatedly emit, across resources, the candidate op with
    the earliest feasible start. Candidates within one resource are
    ranked by ``priority(op_id, ready_time)``, called once when the op's
    dependencies complete (``ready_time`` is the max dep end under the
    new order). The result is topologically valid by construction.
    """
    n = len(schedule)
    deps = schedule._deps
    durations = schedule._dur
    res = schedule._res
    indegree = [len(d) for d in deps]
    dependents: list[list[int]] = [[] for _ in range(n)]
    for op, dep_ids in enumerate(deps):
        for d in dep_ids:
            dependents[d].append(op)
    ready_time = [0.0] * n
    heaps: list[list[tuple]] = [[] for _ in range(len(RESOURCES))]
    for op in range(n):
        if indegree[op] == 0:
            heapq.heappush(heaps[res[op]], (priority(op, 0.0), op))
    avail = [0.0] * len(RESOURCES)
    order: list[int] = []
    for _ in range(n):
        best_key = None
        best_res = -1
        for r, heap in enumerate(heaps):
            if not heap:
                continue
            op = heap[0][1]
            start = max(avail[r], ready_time[op])
            key = (start, r, op)
            if best_key is None or key < best_key:
                best_key = key
                best_res = r
        start, r, op = best_key[0], best_res, heaps[best_res][0][1]
        heapq.heappop(heaps[r])
        end = start + durations[op]
        avail[r] = end
        order.append(op)
        for succ in dependents[op]:
            if ready_time[succ] < end:
                ready_time[succ] = end
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(
                    heaps[res[succ]], (priority(succ, ready_time[succ]), succ)
                )
    return order
