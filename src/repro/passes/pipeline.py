"""The pass pipeline: apply, machine-check, accept or reject.

Every candidate a pass proposes is (1) frozen — malformed rewrites fail
:meth:`Schedule.freeze` validation immediately, (2) checked for
op-multiset conservation against the pass's ``op_map``, (3) executed on
the same hardware (an out-of-capacity memory replay rejects it), (4)
run through :func:`repro.validation.check_timeline`, and (5) gated on
metrics: makespan must not regress, and at equal makespan the bubble
fraction must not grow. Only then does it replace the current schedule.
Each step is recorded as a :class:`PassDecision`, so a rejected pass
leaves an auditable reason rather than silently disappearing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.bubbles import analyze_bubbles
from repro.api.registry import PASSES
from repro.errors import OutOfMemoryError, ScheduleError
from repro.hardware.spec import HardwareSpec
from repro.obs import count, span
from repro.passes.base import PassContext, SchedulePass
from repro.passes.rewrite import OpMap, group_csr
from repro.runtime.executor import Executor
from repro.runtime.schedule import Schedule, gc_paused
from repro.runtime.timeline import Timeline

# The default queue: coalescing first (fewer ops for the reorderers to
# scan), then the transfer-stream retimer, then whole-graph bubble fill.
DEFAULT_PASS_QUEUE = ("coalesce-transfers", "retime-prefetch", "fill-bubbles")

ACCEPTED = "accepted"
REJECTED = "rejected"
NO_OP = "no-op"


@dataclass(frozen=True)
class PassDecision:
    """Provenance for one pass application."""

    name: str
    status: str  # accepted | rejected | no-op
    reason: str
    makespan_before: float
    makespan_after: float | None
    bubble_before: float
    bubble_after: float | None
    ops_before: int
    ops_after: int | None
    wall_ms: float

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "makespan_before": self.makespan_before,
            "makespan_after": self.makespan_after,
            "bubble_before": self.bubble_before,
            "bubble_after": self.bubble_after,
            "ops_before": self.ops_before,
            "ops_after": self.ops_after,
            "wall_ms": round(self.wall_ms, 3),
        }

    def summary(self) -> str:
        if not self.accepted:
            return f"{self.name}: {self.status} ({self.reason})"
        return (
            f"{self.name}: accepted, makespan "
            f"{self.makespan_before:.4f}s -> {self.makespan_after:.4f}s, "
            f"bubbles {self.bubble_before:.1%} -> {self.bubble_after:.1%}"
        )


@dataclass
class PipelineResult:
    """Outcome of one :class:`PassPipeline` run.

    ``schedule`` and ``timeline`` are the final (optimized) artifacts —
    identical to the inputs when nothing was accepted.
    ``op_map`` composes every accepted rewrite (None means identity);
    :meth:`remap_op` translates original op ids into the final schedule.
    """

    schedule: Schedule
    timeline: Timeline
    decisions: tuple[PassDecision, ...]
    op_map: OpMap | None
    baseline_makespan: float
    baseline_bubble_fraction: float

    def __post_init__(self):
        self._groups: tuple | None = None  # the op map as group CSR arrays

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    @property
    def accepted(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decisions if d.accepted)

    def remap_op(self, old_id: int) -> int:
        """Final-schedule op id holding original op ``old_id``."""
        if self.op_map is None:
            return old_id
        if self._groups is None:
            self._groups = group_csr(self.op_map)
        indptr, members = self._groups
        at = np.flatnonzero(members == old_id)
        if not len(at):
            raise KeyError(old_id)
        return int(np.searchsorted(indptr, at[0], side="right")) - 1

    def to_dict(self) -> dict:
        final_bubbles = analyze_bubbles(self.timeline)
        return {
            "baseline": {
                "makespan_s": self.baseline_makespan,
                "bubble_fraction": self.baseline_bubble_fraction,
            },
            "optimized": {
                "makespan_s": self.makespan,
                "bubble_fraction": final_bubbles.bubble_fraction,
                "num_ops": len(self.schedule),
            },
            "accepted": list(self.accepted),
            "passes": [d.to_dict() for d in self.decisions],
        }


def resolve_passes(passes) -> list[SchedulePass]:
    """Instantiate a pass queue from names and/or instances."""
    resolved: list[SchedulePass] = []
    for entry in passes:
        if isinstance(entry, str):
            resolved.append(PASSES.get(entry)())
        elif isinstance(entry, SchedulePass):
            resolved.append(entry)
        else:  # a registered factory/class passed directly
            resolved.append(entry())
    return resolved


class PassPipeline:
    """An ordered queue of invariant-verified optimizer passes.

    Args:
        passes: pass names (resolved through the ``PASSES`` registry)
            and/or :class:`SchedulePass` instances; defaults to
            :data:`DEFAULT_PASS_QUEUE`.
    """

    def __init__(self, passes=None):
        self.passes = resolve_passes(
            DEFAULT_PASS_QUEUE if passes is None else passes
        )

    def run(
        self,
        schedule: Schedule,
        hardware: HardwareSpec,
        *,
        capacities: dict[str, int] | None = None,
    ) -> PipelineResult:
        """Optimize ``schedule``, accepting only verified improvements.

        Raises:
            OutOfMemoryError: when the *baseline* schedule itself does
                not fit (same contract as executing it directly);
                candidate OOMs only reject the candidate.
        """
        from repro.validation.pass_differential import check_conservation

        executor = Executor(hardware)
        with gc_paused(), span("passes.pipeline", {"passes": len(self.passes)}):
            timeline = executor.run(schedule, capacities=capacities)
            baseline_makespan = timeline.makespan
            baseline_bubbles = analyze_bubbles(timeline).bubble_fraction
            cur_sched, cur_timeline = schedule, timeline
            cur_bubbles = baseline_bubbles
            op_map: OpMap | None = None
            decisions: list[PassDecision] = []
            for p in self.passes:
                with span("passes.apply", {"pass": p.name}):
                    decision, accepted = self._try_pass(
                        p, executor, capacities, cur_sched, cur_timeline,
                        hardware, cur_bubbles, check_conservation,
                    )
                decisions.append(decision)
                count(f"passes.{decision.status}")
                if accepted is not None:
                    cur_sched, cur_timeline, cur_bubbles, step_map = accepted
                    op_map = _compose(op_map, step_map)
        return PipelineResult(
            schedule=cur_sched,
            timeline=cur_timeline,
            decisions=tuple(decisions),
            op_map=op_map,
            baseline_makespan=baseline_makespan,
            baseline_bubble_fraction=baseline_bubbles,
        )

    def _try_pass(
        self, p, executor, capacities, cur_sched, cur_timeline, hardware,
        cur_bubbles, check_conservation,
    ):
        t0 = time.perf_counter()
        before = dict(
            makespan_before=cur_timeline.makespan,
            bubble_before=cur_bubbles,
            ops_before=len(cur_sched),
        )

        def reject(reason, **after):
            return PassDecision(
                name=p.name, status=REJECTED, reason=reason,
                makespan_after=after.get("makespan_after"),
                bubble_after=after.get("bubble_after"),
                ops_after=after.get("ops_after"),
                wall_ms=(time.perf_counter() - t0) * 1e3, **before,
            ), None

        ctx = PassContext(cur_sched, cur_timeline, hardware)
        try:
            with span("passes.rewrite"):
                result = p.apply(ctx)
        except ScheduleError as exc:
            return reject(f"pass raised: {exc}")
        if result is None:
            return PassDecision(
                name=p.name, status=NO_OP, reason="nothing to rewrite",
                makespan_after=None, bubble_after=None, ops_after=None,
                wall_ms=(time.perf_counter() - t0) * 1e3, **before,
            ), None
        with span("passes.conservation"):
            violations = check_conservation(
                cur_sched, result.schedule, result.op_map
            )
        if violations:
            return reject(f"conservation: {violations[0]}")
        try:
            result.schedule.freeze()
        except ScheduleError as exc:
            return reject(f"freeze failed: {exc}")
        try:
            cand_timeline = executor.run(result.schedule, capacities=capacities)
        except OutOfMemoryError as exc:
            return reject(f"memory replay OOM: {exc}")
        cand_violations = _check(result.schedule, cand_timeline)
        if cand_violations:
            return reject(f"invariant: {cand_violations[0]}")
        cand_bubbles = analyze_bubbles(cand_timeline).bubble_fraction
        after = dict(
            makespan_after=cand_timeline.makespan,
            bubble_after=cand_bubbles,
            ops_after=len(result.schedule),
        )
        if cand_timeline.makespan > cur_timeline.makespan:
            return reject(
                f"makespan regressed {cur_timeline.makespan:.6f}s -> "
                f"{cand_timeline.makespan:.6f}s", **after,
            )
        if (
            cand_timeline.makespan == cur_timeline.makespan
            and cand_bubbles > cur_bubbles
        ):
            return reject(
                f"bubble fraction regressed {cur_bubbles:.4f} -> "
                f"{cand_bubbles:.4f} at equal makespan", **after,
            )
        decision = PassDecision(
            name=p.name, status=ACCEPTED, reason="", wall_ms=(
                time.perf_counter() - t0
            ) * 1e3, **before, **after,
        )
        return decision, (
            result.schedule, cand_timeline, cand_bubbles, result.op_map,
        )


def _check(schedule, timeline):
    from repro.validation.invariants import check_timeline

    return check_timeline(schedule, timeline)


def _compose(op_map: OpMap | None, step_map: OpMap) -> OpMap:
    """Compose a newly accepted rewrite onto the running op map."""
    if op_map is None:
        return step_map
    return tuple(
        op_map[group[0]] if len(group) == 1
        else tuple(orig for member in group for orig in op_map[member])
        for group in step_map
    )
