"""Schedule rewriting primitives shared by the optimizer passes.

Passes never mutate the input :class:`~repro.runtime.schedule.Schedule`;
they describe a rewrite — a reordering and/or grouping of the original
rows — and these helpers rebuild a fresh schedule from it, renumbering
dependency ids and re-attaching memory effects. Every helper returns the
rewritten schedule together with an ``op_map`` (new op id -> tuple of
original op ids) that the :mod:`repro.validation.pass_differential`
harness uses to prove op-multiset conservation.

The helpers work on columns: a rewrite's groups become CSR arrays, each
rebuilt column is one gather, and dependencies are remapped through the
schedule's dependency CSR. ``tests/pass_reference.py`` keeps the per-op
formulations they are held to.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain
from typing import Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.runtime.schedule import RESOURCES, Schedule, render_labels

OpMap = tuple[tuple[int, ...], ...]


def group_csr(groups: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, members)`` int64 arrays of rewrite groups:
    group ``j`` lists ``members[indptr[j]:indptr[j + 1]]``."""
    g = len(groups)
    indptr = np.zeros(g + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, groups), dtype=np.int64, count=g), out=indptr[1:])
    members = np.fromiter(
        chain.from_iterable(groups), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, members


def first_unassignable(members: np.ndarray, n: int) -> int:
    """Position of the first member that is out of ``range(n)`` or lists
    an op an earlier position already took (-1: none)."""
    bad = (members < 0) | (members >= n)
    # Stable sort: every repeat after a value's first position is taken.
    order = np.argsort(members, kind="stable")
    ranked = members[order]
    bad[order[1:][ranked[1:] == ranked[:-1]]] = True
    return int(np.argmax(bad)) if bad.any() else -1


def split_rows(flat: list, indptr: list) -> list[tuple]:
    """``flat`` cut into one tuple per CSR row."""
    return [tuple(flat[a:b]) for a, b in zip(indptr, indptr[1:])]


def _remap_deps(
    schedule: Schedule, members: np.ndarray, owner: np.ndarray,
    old_to_new: np.ndarray, g: int,
) -> tuple[list[tuple[int, ...]], tuple[np.ndarray, np.ndarray]]:
    """Each group's sorted, deduplicated dependencies in new op ids,
    dependencies inside the group dropped, as tuples and as the CSR
    ``(indptr, indices)`` they are cut from."""
    dep_ptr, dep_ids = schedule.deps_csr()
    counts = np.diff(dep_ptr)[members]
    total = int(counts.sum())
    # Gather every member's CSR row: position k of the flattened rows
    # reads dep_ids[dep_ptr[member] + (k - row start)].
    row_start = np.cumsum(counts) - counts
    take = np.repeat(dep_ptr[members] - row_start, counts) + np.arange(total)
    dep_owner = np.repeat(owner, counts)
    mapped = old_to_new[dep_ids[take]]
    # Sorted, deduplicated (group, dependency group) keys.
    keys = np.sort((dep_owner * g + mapped)[mapped != dep_owner])
    keys = keys[np.append(True, keys[1:] != keys[:-1])] if len(keys) else keys
    indptr = np.zeros(g + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // g, minlength=g), out=indptr[1:])
    indices = keys % g
    return split_rows(indices.tolist(), indptr.tolist()), (indptr, indices)


def _group_labels(labels, plans, heads, merged) -> list[str]:
    """Rebuilt rows' labels: each head's label, ``(+k)`` on a group
    that folds in ``k`` more ops."""
    source = render_labels(labels, plans)
    out = list(map(source.__getitem__, heads.tolist()))
    for j, extra in merged:
        out[j] = f"{out[j]}(+{extra})"
    return out


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
        ScheduleError: when ``groups`` is not a partition, holds an
            empty group, or a merged group mixes resources.
    """
    n = len(schedule)
    g = len(groups)
    indptr, members = group_csr(groups)
    bad = first_unassignable(members, n)
    if bad >= 0:
        raise ScheduleError(
            f"rewrite groups are not a partition (op {int(members[bad])})"
        )
    if len(members) != n:
        raise ScheduleError("rewrite groups do not cover every op")
    sizes = np.diff(indptr)
    if g and sizes.min() == 0:
        raise ScheduleError(f"rewrite group {int(np.argmin(sizes))} is empty")

    owner = np.repeat(np.arange(g, dtype=np.int64), sizes)
    heads = members[indptr[:-1]]
    res = np.array(schedule._res, dtype=np.int64)
    mixed = res[members] != res[heads[owner]]
    if mixed.any():
        pos = int(np.argmax(mixed))
        j = int(owner[pos])
        raise ScheduleError(
            f"merged group {j} mixes resources "
            f"({RESOURCES[res[heads[j]]]} vs {RESOURCES[res[members[pos]]]})"
        )
    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[members] = owner

    head_ids = heads.tolist()
    dur = schedule._dur
    # 0.0 + d, as the sequential sum below starts from 0.0.
    new_dur = (np.array(dur, dtype=np.float64)[heads] + 0.0).tolist()
    merged = []
    for j in np.flatnonzero(sizes > 1).tolist():
        # Sequential sum: matches the float arithmetic of executing the
        # members back to back, so a gapless merge is bit-neutral.
        duration = 0.0
        for member in groups[j]:
            duration += dur[member]
        new_dur[j] = duration
        merged.append((j, len(groups[j]) - 1))

    deps, csr = _remap_deps(schedule, members, owner, old_to_new, g)
    rewritten = Schedule()
    # Re-attach memory effects in the original attachment order (the
    # frozen event stream sorts stably by (op, kind), so per-op replay
    # order is preserved). Merged groups pool their members' effects:
    # allocs move to the merged op's start and frees to its end, which
    # can only raise the replayed peak — never hide an OOM.
    rewritten.extend_raw(
        res[heads].tolist(),
        new_dur,
        deps,
        (
            _group_labels,
            (schedule._labels, tuple(schedule._label_plans), heads, merged),
        ),
        list(map(schedule._layers.__getitem__, head_ids)),
        list(map(schedule._phases.__getitem__, head_ids)),
        list(map(schedule._batches.__getitem__, head_ids)),
        effects=(
            old_to_new[np.array(schedule._ev_op, dtype=np.int64)].tolist(),
            schedule._ev_kind,
            schedule._ev_pool,
            schedule._ev_tensor,
            schedule._ev_nbytes,
        ),
    )
    # The candidate's validation and invariant checks read this CSR
    # instead of rebuilding it from the tuples cut from it.
    rewritten.adopt_deps_csr(*csr)
    return rewritten, tuple(map(tuple, groups))


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

    When every group's dependencies map to itself or earlier groups, the
    given order is already topological, and as the lexicographically
    smallest topological order it is the one Kahn's min-heap returns;
    that case returns the groups unchanged without running it.
    """
    n = len(schedule)
    indptr, members = group_csr(groups)
    owner = np.repeat(np.arange(len(groups), dtype=np.int64), np.diff(indptr))
    group_of = np.full(n, len(groups), dtype=np.int64)  # past every group
    group_of[members] = owner
    dep_ptr, dep_ids = schedule.deps_csr()
    dep_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(dep_ptr))
    if (group_of[dep_ids] <= group_of[dep_owner]).all():
        return list(map(tuple, groups))

    group_of = group_of.tolist()
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
    schedule: Schedule, priority: Sequence[float] | None = None
) -> list[int]:
    """Deterministic event-driven list scheduling over the dep graph.

    Re-derives a global issue order by simulating the executor's FIFO
    semantics: repeatedly emit, across resources, the candidate op with
    the earliest feasible start (ties broken by resource, then op id).
    Candidates within one resource are ranked by ``(priority[op], op)``
    — a static per-op key — or, when ``priority`` is None, by
    ``(ready_time, op)``, where ``ready_time`` is the max dep end under
    the new order. The result is topologically valid by construction.
    """
    n = len(schedule)
    durations = schedule._dur
    res = schedule._res
    dep_ptr, dep_ids = schedule.deps_csr()
    indegree = np.diff(dep_ptr).tolist()
    # Dependents CSR: a stable sort of the dep column keeps each op's
    # dependents in ascending id order.
    by_dep = np.argsort(dep_ids, kind="stable")
    dependent_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dep_ids, minlength=n), out=dependent_ptr[1:])
    dep_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(dep_ptr))
    dependents = split_rows(dep_owner[by_dep].tolist(), dependent_ptr.tolist())
    rank = None if priority is None else np.asarray(priority, dtype=np.float64).tolist()
    push, pop = heapq.heappush, heapq.heappop

    ready_time = [0.0] * n
    num_res = len(RESOURCES)
    heaps: list[list[tuple]] = [[] for _ in range(num_res)]
    for op in range(n):
        if indegree[op] == 0:
            push(heaps[res[op]], (0.0 if rank is None else rank[op], op))
    avail = [0.0] * num_res
    # Each resource's next emission as (start, resource, op); an empty
    # resource holds a key no real candidate loses to. Only the emitting
    # resource and resources whose heap top changed are refreshed.
    idle = (math.inf, num_res, -1)
    cand = [(0.0, r, heap[0][1]) if heap else idle for r, heap in enumerate(heaps)]
    order: list[int] = []
    emit = order.append
    for _ in range(n):
        start, r, op = min(cand)
        heap = heaps[r]
        pop(heap)
        end = start + durations[op]
        avail[r] = end
        emit(op)
        for succ in dependents[op]:
            if ready_time[succ] < end:
                ready_time[succ] = end
            indegree[succ] -= 1
            if not indegree[succ]:
                ready = ready_time[succ]
                s_res = res[succ]
                s_heap = heaps[s_res]
                push(s_heap, (ready if rank is None else rank[succ], succ))
                if s_res != r and s_heap[0][1] == succ:
                    s_avail = avail[s_res]
                    cand[s_res] = (ready if ready > s_avail else s_avail, s_res, succ)
        if heap:
            top = heap[0][1]
            ready = ready_time[top]
            cand[r] = (ready if ready > end else end, r, top)
        else:
            cand[r] = idle
    return order
