"""Per-op reference implementations of the pass-layer primitives.

The pass pipeline checks and rebuilds schedules from columns: CSR group
maps, gathers, one lexsort of each side's memory-effect stream. The
functions here are the straightforward per-op formulations of the same
semantics: one ``Counter`` per op for the effect multiset, one Python
loop per group for the rebuilt rows, Kahn's algorithm for every group
order, a callable priority that scans every resource heap per emitted
op, and the ``coalesce-transfers`` chain scan and ``retime-prefetch``
priority written op by op. Differential tests hold the column code to
these oracles: the same violation list, the same orders and the same
columns (``tests/test_pass_differential.py``).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Callable, Sequence

from repro.errors import ScheduleError
from repro.passes.library import TRANSFER_CODES
from repro.runtime.schedule import RESOURCES, Schedule
from repro.validation.invariants import Violation


def rebuild_schedule(
    schedule: Schedule, groups: Sequence[tuple[int, ...]]
) -> tuple[Schedule, tuple[tuple[int, ...], ...]]:
    """Rebuild ``schedule`` with rows regrouped and reordered, one
    group at a time (see :func:`repro.passes.rewrite.rebuild_schedule`)."""
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
    for j, group in enumerate(groups):
        if not group:
            raise ScheduleError(f"rewrite group {j} is empty")

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
    """Kahn's algorithm over the condensed group DAG, min-heap keyed by
    group index (None when the condensation cycles)."""
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


def greedy_order(
    schedule: Schedule, priority: Callable[[int, float], tuple]
) -> list[int]:
    """Event-driven list scheduling that scans every resource heap per
    emitted op; ``priority(op, ready_time)`` ranks one resource's
    candidates and is called when the op becomes ready."""
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


def coalesce_groups(ctx) -> list[tuple[int, ...]] | None:
    """The ``coalesce-transfers`` chain scan, testing chain membership
    against the member list; returns the ordered groups (None: nothing
    to merge, or the condensation cycles)."""
    schedule = ctx.schedule
    n = len(schedule)
    res = schedule._res
    deps = schedule._deps
    starts, ends = ctx.timeline.starts, ctx.timeline.ends
    dependents = [0] * n
    for dep_ids in deps:
        for d in dep_ids:
            dependents[d] += 1
    streams: dict[int, list[int]] = {code: [] for code in TRANSFER_CODES}
    for op in range(n):
        if res[op] in streams:
            streams[res[op]].append(op)
    chain_of = [-1] * n
    chains: dict[int, list[int]] = {}
    for stream in streams.values():
        for prev, op in zip(stream, stream[1:]):
            if starts[op] != ends[prev]:
                continue
            consumed = dependents[prev]
            if consumed and not (consumed == 1 and prev in deps[op]):
                continue
            head = chain_of[prev] if chain_of[prev] != -1 else prev
            members = chains.get(head, [head])
            if any(d not in members and ends[d] > starts[head] for d in deps[op]):
                continue
            chain = chains.setdefault(head, [head])
            chain.append(op)
            chain_of[head] = head
            chain_of[op] = head
    if not chains:
        return None
    groups: list[tuple[int, ...]] = []
    for op in range(n):
        head = chain_of[op]
        if head == -1:
            groups.append((op,))
        elif head == op:
            groups.append(tuple(chains[op]))
    return order_groups(schedule, groups)


def retime_priority(ctx) -> Callable[[int, float], tuple]:
    """The ``retime-prefetch`` priority: a transfer ranks by the earliest
    baseline start among its dependents, compute keeps issue order."""
    schedule = ctx.schedule
    res = schedule._res
    starts = ctx.timeline.starts
    need = [math.inf] * len(schedule)
    for op, dep_ids in enumerate(schedule._deps):
        start = float(starts[op])
        for d in dep_ids:
            if start < need[d]:
                need[d] = start

    def priority(op: int, ready: float) -> tuple:
        if res[op] in TRANSFER_CODES:
            return (need[op], op)
        return (0.0, op)

    return priority


def _effects_by_op(schedule: Schedule) -> dict[int, Counter]:
    effects: dict[int, Counter] = {}
    for op, kind, pool, tensor, nbytes in zip(
        schedule._ev_op, schedule._ev_kind, schedule._ev_pool,
        schedule._ev_tensor, schedule._ev_nbytes,
    ):
        effects.setdefault(op, Counter())[(kind, pool, tensor, nbytes)] += 1
    return effects


def check_conservation(
    original: Schedule, optimized: Schedule, op_map
) -> list[Violation]:
    """Op-multiset conservation with one ``Counter`` per op (see
    :func:`repro.validation.pass_differential.check_conservation`)."""
    if op_map is None:
        op_map = tuple((i,) for i in range(len(original)))
    violations: list[Violation] = []
    n = len(original)
    if len(op_map) != len(optimized):
        return [
            Violation(
                "conservation",
                f"op_map has {len(op_map)} groups for "
                f"{len(optimized)} output ops",
            )
        ]
    seen = [False] * n
    for group in op_map:
        for member in group:
            if not 0 <= member < n or seen[member]:
                violations.append(
                    Violation(
                        "conservation",
                        f"original op {member} missing or duplicated in op_map",
                    )
                )
                return violations
            seen[member] = True
    if not all(seen):
        missing = seen.index(False)
        return [
            Violation(
                "conservation", f"original op {missing} dropped by the rewrite"
            )
        ]

    old_effects = _effects_by_op(original)
    new_effects = _effects_by_op(optimized)
    for new_id, group in enumerate(op_map):
        if not group:
            violations.append(
                Violation("conservation", f"output op {new_id} has an empty group")
            )
            continue
        head = group[0]
        if optimized._res[new_id] != original._res[head] or any(
            original._res[m] != original._res[head] for m in group
        ):
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} changed resource "
                    f"({RESOURCES[optimized._res[new_id]]} vs group of "
                    f"{RESOURCES[original._res[head]]})",
                )
            )
        duration = 0.0
        for m in group:
            duration += original._dur[m]
        if optimized._dur[new_id] != duration:
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} duration {optimized._dur[new_id]!r}"
                    f" != group sum {duration!r}",
                )
            )
        if optimized._phases[new_id] != original._phases[head]:
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} changed phase "
                    f"{original._phases[head]!r} -> "
                    f"{optimized._phases[new_id]!r}",
                )
            )
        if len(group) == 1 and (
            optimized._layers[new_id] != original._layers[head]
            or optimized._batches[new_id] != original._batches[head]
        ):
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} changed layer/batch attribution",
                )
            )
        merged = Counter()
        for m in group:
            merged.update(old_effects.get(m, ()))
        if new_effects.get(new_id, Counter()) != merged:
            violations.append(
                Violation(
                    "conservation",
                    f"output op {new_id} changed its memory-effect multiset",
                )
            )
    return violations
