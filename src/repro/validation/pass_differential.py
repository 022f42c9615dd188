"""Pass differential: prove optimized schedules are the same work, faster.

The optimizer pipeline (:mod:`repro.passes`) already gates each step;
this harness independently re-proves the end-to-end contract for a
whole pipeline run, from the outside:

* **conservation** — the composed ``op_map`` is a partition of the
  original ops, and every output op conserves its group's resource,
  duration (bitwise sequential sum), phase, and memory-effect multiset;
* **invariants** — the final timeline is ``check_timeline``-clean;
* **monotonicity** — the final makespan never exceeds the baseline's.

Surfaced as ``repro.cli validate --passes`` (golden schedules + fuzzed
cases) and used by the property-based pass-safety test suite.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.hardware.spec import HardwareSpec
from repro.passes import PassPipeline, PipelineResult
from repro.passes.rewrite import OpMap, first_unassignable, group_csr
from repro.runtime.schedule import RESOURCES, Schedule
from repro.validation.invariants import Violation, check_timeline


def _effect_columns(schedule: Schedule, op_ids, num_ops: int, codes: dict) -> np.ndarray:
    """A schedule's memory effects as a ``[5, events]`` int64 array of
    (output op, kind, pool code, tensor code, nbytes) rows, sorted by
    that key; ``op_ids`` maps each event's op to its output op, and
    events whose op falls outside ``range(num_ops)`` are dropped."""
    ops = np.array(schedule._ev_op, dtype=np.int64)
    keep = (ops >= 0) & (ops < num_ops)
    rows = np.array(
        [
            ops,
            np.array(schedule._ev_kind, dtype=np.int64),
            list(map(codes.__getitem__, schedule._ev_pool)),
            list(map(codes.__getitem__, schedule._ev_tensor)),
            np.array(schedule._ev_nbytes, dtype=np.int64),
        ],
        dtype=np.int64,
    ).reshape(5, len(ops))[:, keep]
    if op_ids is not None:
        rows[0] = op_ids[rows[0]]
    return rows[:, np.lexsort(rows[::-1])]


def _effects_differ(
    original: Schedule, optimized: Schedule, old_to_new, num_ops: int
) -> np.ndarray:
    """Per output op: does its memory-effect multiset differ from the
    union of its group's?"""
    names = chain(
        original._ev_pool, original._ev_tensor,
        optimized._ev_pool, optimized._ev_tensor,
    )
    codes = {name: code for code, name in enumerate(dict.fromkeys(names))}
    old = _effect_columns(original, old_to_new, len(original), codes)
    new = _effect_columns(optimized, None, num_ops, codes)
    differ = np.bincount(old[0], minlength=num_ops) != np.bincount(
        new[0], minlength=num_ops
    )
    # Sorted by op first, the events of ops with equal counts align row
    # for row once the ops whose counts differ are dropped from both.
    old = old[:, ~differ[old[0]]]
    new = new[:, ~differ[new[0]]]
    differ[old[0][(old != new).any(axis=0)]] = True
    return differ


def _group_violations(
    original: Schedule, optimized: Schedule, new_id: int, group, effects_differ: bool
) -> list[Violation]:
    """The conservation violations of one output op, in check order."""
    if not group:
        return [Violation("conservation", f"output op {new_id} has an empty group")]
    violations = []
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
    if effects_differ:
        violations.append(
            Violation(
                "conservation",
                f"output op {new_id} changed its memory-effect multiset",
            )
        )
    return violations


def check_conservation(
    original: Schedule, optimized: Schedule, op_map: OpMap | None
) -> list[Violation]:
    """Check that ``optimized`` conserves the op multiset of ``original``.

    ``op_map`` must partition the original ops, and every output op must
    conserve its group's resource, duration (a bitwise sequential sum),
    phase, singleton layer/batch and memory-effect multiset. The checks
    run on columns — gathers through the op map, one lexsort of each
    side's effect stream — and messages are built for the failing
    output ops only, in output-op then check order.

    Args:
        original: the pre-pass schedule.
        optimized: a candidate or final rewritten schedule.
        op_map: new op id -> original op ids (None means identity).

    Returns:
        Violations (empty when the rewrite conserves everything).
    """
    n = len(original)
    if op_map is None:
        op_map = tuple((i,) for i in range(n))
    g = len(op_map)
    if g != len(optimized):
        return [
            Violation(
                "conservation",
                f"op_map has {g} groups for {len(optimized)} output ops",
            )
        ]
    indptr, members = group_csr(op_map)
    bad = first_unassignable(members, n)
    if bad >= 0:
        return [
            Violation(
                "conservation",
                f"original op {int(members[bad])} missing or duplicated in op_map",
            )
        ]
    if len(members) != n:
        seen = np.zeros(n, dtype=bool)
        seen[members] = True
        return [
            Violation(
                "conservation",
                f"original op {int(np.argmin(seen))} dropped by the rewrite",
            )
        ]

    if n == 0:  # every group is empty
        return [
            v for j in range(g)
            for v in _group_violations(original, optimized, j, op_map[j], False)
        ]
    sizes = np.diff(indptr)
    owner = np.repeat(np.arange(g, dtype=np.int64), sizes)
    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[members] = owner
    empty = sizes == 0
    # Empty groups borrow op 0 as a stand-in head; they fail on their own.
    heads = np.where(empty, 0, members[np.minimum(indptr[:-1], n - 1)])
    single = sizes == 1

    old_res = np.array(original._res, dtype=np.int64)
    failing = np.array(optimized._res, dtype=np.int64) != old_res[heads]
    failing[owner[old_res[members] != old_res[heads[owner]]]] = True
    old_dur = np.array(original._dur, dtype=np.float64)
    failing[single] |= np.array(optimized._dur, dtype=np.float64)[single] != (
        old_dur[heads[single]]
    )
    for j in np.flatnonzero(sizes > 1).tolist():
        duration = 0.0
        for m in op_map[j]:
            duration += original._dur[m]
        failing[j] |= optimized._dur[j] != duration
    failing |= np.fromiter(
        map(
            operator.ne,
            optimized._phases,
            map(original._phases.__getitem__, heads.tolist()),
        ),
        dtype=bool,
        count=g,
    )
    for new_col, old_col in (
        (optimized._layers, original._layers),
        (optimized._batches, original._batches),
    ):
        failing[single] |= np.array(new_col, dtype=np.int64)[single] != np.array(
            old_col, dtype=np.int64
        )[heads[single]]
    effects_differ = _effects_differ(original, optimized, old_to_new, g)
    failing |= effects_differ | empty

    violations: list[Violation] = []
    for new_id in np.flatnonzero(failing).tolist():
        violations.extend(
            _group_violations(
                original, optimized, new_id, op_map[new_id],
                bool(effects_differ[new_id]),
            )
        )
    return violations


@dataclass
class PassDifferentialResult:
    """A pipeline run plus its independently re-proved contract.

    Attributes:
        pipeline: the :class:`~repro.passes.PipelineResult` under test.
        violations: contract violations found by the re-proof (empty
            when the run is clean).
    """

    pipeline: PipelineResult
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        payload = self.pipeline.to_dict()
        payload["violations"] = [str(v) for v in self.violations]
        return payload


def run_pass_differential(
    schedule: Schedule,
    hardware: HardwareSpec,
    *,
    passes=None,
    capacities: dict[str, int] | None = None,
) -> PassDifferentialResult:
    """Run the pass pipeline and re-prove its end-to-end contract.

    Args:
        schedule: the baseline schedule to optimize.
        hardware: the machine it targets.
        passes: pass queue (default: :data:`repro.passes.DEFAULT_PASS_QUEUE`).
        capacities: pool-capacity override for execution.

    Returns:
        The pipeline result plus any contract violations.
    """
    pipeline = PassPipeline(passes)
    result = pipeline.run(schedule, hardware, capacities=capacities)
    violations = check_conservation(schedule, result.schedule, result.op_map)
    violations.extend(check_timeline(result.schedule, result.timeline))
    if result.makespan > result.baseline_makespan:
        violations.append(
            Violation(
                "pass-monotonicity",
                f"optimized makespan {result.makespan!r} exceeds baseline "
                f"{result.baseline_makespan!r}",
            )
        )
    for decision in result.decisions:
        if decision.status == "rejected" and not decision.reason:
            violations.append(
                Violation(
                    "pass-provenance",
                    f"pass {decision.name} rejected without a recorded reason",
                )
            )
    return PassDifferentialResult(pipeline=result, violations=violations)


# The golden pipeline systems pinned by tests/test_goldens.py.
GOLDEN_PASS_SYSTEMS = ("klotski", "klotski(q)", "flexgen")


def golden_pass_configs() -> list:
    """The golden pipeline recipe as replayable config blobs.

    Mirrors ``tests/test_goldens.py``: a mid-size MoE whose weights do
    not fit the small GPU, forcing real offloading schedules, expressed
    with inline model/hardware specs so the CLI needs no test fixtures.

    Returns:
        One :class:`~repro.api.RunConfig` per golden pipeline system.
    """
    from repro.api import RunConfig, ScenarioConfig, SystemConfig
    from repro.hardware.spec import GB, GiB, ComputeSpec, HardwareSpec, LinkSpec
    from repro.model.config import ModelConfig

    model = dataclasses.asdict(
        ModelConfig(
            name="small-mixtral",
            hidden_size=1024,
            intermediate_size=3584,
            num_layers=8,
            num_heads=16,
            num_kv_heads=4,
            num_experts=8,
            top_k=2,
            vocab_size=8192,
        )
    )
    env = dataclasses.asdict(
        HardwareSpec(
            name="small-env",
            gpu=ComputeSpec("small-gpu", 4e12, 100 * GB, kernel_overhead_s=100e-6),
            cpu=ComputeSpec("small-cpu", 0.1e12, 10 * GB, kernel_overhead_s=5e-6),
            vram_bytes=1 * GiB,
            dram_bytes=32 * GiB,
            disk_bytes=200 * GB,
            pcie_h2d=LinkSpec("h2d", 2 * GB),
            pcie_d2h=LinkSpec("d2h", 2 * GB),
            disk_link=LinkSpec("disk", 0.5 * GB, latency_s=80e-6),
        )
    )
    scenario = ScenarioConfig(
        model=model, env=env, batch_size=4, n=3, prompt_len=32, gen_len=4,
        seed=3,
    )
    return [
        RunConfig(scenario=scenario, system=SystemConfig(name))
        for name in GOLDEN_PASS_SYSTEMS
    ]


def run_golden_pass_cases(report, *, passes=None) -> None:
    """Pass-differential over the golden pipeline schedules.

    Folds one case per golden system into ``report`` (a
    :class:`~repro.validation.fuzz.FuzzReport`), tagged so a failure
    names the system; the recorded config blob replays it.

    Args:
        report: accumulator updated in place.
        passes: pass-queue override (default: the default queue).
    """
    from repro.api import build_scenario, build_system

    for config in golden_pass_configs():
        scenario = build_scenario(config.scenario)
        system = build_system(config.system)
        report.cases += 1
        report.pipeline_cases += 1
        schedule = system.build(scenario).schedule
        diff = run_pass_differential(schedule, scenario.hardware, passes=passes)
        report.record(
            f"golden system={system.name} [passes]",
            config,
            violations=[str(v) for v in diff.violations],
            passes=list(diff.pipeline.accepted),
        )
