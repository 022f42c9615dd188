"""Column pass primitives vs their per-op oracles (tests/pass_reference.py).

The pass layer checks and rebuilds schedules from columns. These tests
hold it to the per-op formulations it replaced: the same greedy and
group orders, the same rebuilt columns (durations bit for bit, labels
byte for byte), the same pass candidates, and the same conservation
violation list, on every golden schedule, the ``validate --passes``
schedules, random DAGs with tied durations and starts, and seeded
mutants of each rewrite.
"""

import functools
import math

import numpy as np
import pytest

from repro.api import SystemConfig, build_scenario, build_system, system_names
from repro.errors import ReproError, ScheduleError
from repro.passes import library
from repro.passes.base import PassContext
from repro.passes.rewrite import greedy_order, order_groups, rebuild_schedule
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.schedule import (
    PHASE_ATTENTION,
    PHASE_EXPERT,
    PHASE_TRANSFER,
    RESOURCES,
    MemEffect,
    Schedule,
)
from repro.validation import check_conservation
from repro.validation.fuzz import random_run_config
from tests import pass_reference as ref
from tests.test_executor import make_hw
from tests.test_goldens import _scenario

FUZZ_CASES = (0, 1, 2, 4, 5, 6)  # pipeline case indices of --seed 0
RANDOM_SEEDS = tuple(range(24))


def random_schedule(seed: int) -> Schedule:
    """A random DAG whose durations come from a few values, so starts
    tie across resources and gapless transfer chains form."""
    rng = np.random.default_rng(seed)
    s = Schedule()
    for op in range(int(rng.integers(1, 70))):
        deps = rng.choice(op, size=min(op, int(rng.integers(0, 4))), replace=False)
        effects = [
            MemEffect(str(rng.choice(["vram", "dram"])), f"t{rng.integers(0, 4)}",
                      int(rng.integers(1, 4)) * 8)
            for _ in range(int(rng.integers(0, 3)))
        ]
        half = int(rng.integers(0, len(effects) + 1))
        s.add(
            RESOURCES[int(rng.choice([0, 1, 2, 2, 3, 4, 5, 5]))],
            (0.0, 0.5, 1.0, 1, 2.0)[int(rng.integers(0, 5))],  # an int too
            f"op{op}",
            deps=deps.tolist(),
            layer=int(rng.integers(-1, 3)),
            phase=str(rng.choice([PHASE_ATTENTION, PHASE_EXPERT, PHASE_TRANSFER])),
            batch=int(rng.integers(-1, 3)),
            allocs=effects[:half],
            frees=effects[half:],
        )
    return s


@functools.cache
def source(name: str) -> tuple[Schedule, object, object]:
    """A frozen schedule, its hardware and its executed timeline."""
    kind, _, key = name.partition(":")
    if kind == "golden":
        scenario = _scenario()
        schedule = build_system(SystemConfig(key)).build(scenario).schedule
        hardware = scenario.hardware
    elif kind == "fuzz":
        case_seed = int(np.random.default_rng([0, int(key)]).integers(0, 2**63))
        config = random_run_config(np.random.default_rng(case_seed))
        scenario = build_scenario(config.scenario)
        try:
            schedule = build_system(config.system).build(scenario).schedule
        except (ReproError, ValueError):
            pytest.skip("unbuildable fuzz case")
        hardware = scenario.hardware
    else:
        schedule, hardware = random_schedule(int(key)), make_hw()
    timeline = Executor(hardware, ExecutorConfig(check_memory=False)).run(schedule)
    return schedule, hardware, timeline


SOURCES = (
    [f"golden:{name}" for name in system_names()]
    + [f"fuzz:{i}" for i in FUZZ_CASES]
    + [f"random:{seed}" for seed in RANDOM_SEEDS]
)


def columns(s: Schedule) -> tuple:
    """Every column of a schedule; durations by repr, so a sign or type
    change shows."""
    return (
        s._res, list(map(repr, s._dur)), s._deps, s._rendered_labels(),
        s._layers, s._phases, s._batches,
        s._ev_op, s._ev_kind, s._ev_pool, s._ev_tensor, s._ev_nbytes,
    )


def clone(s: Schedule) -> Schedule:
    out = Schedule()
    out.extend_raw(
        list(s._res), list(s._dur), list(s._deps), list(s._rendered_labels()),
        list(s._layers), list(s._phases), list(s._batches),
        effects=(list(s._ev_op), list(s._ev_kind), list(s._ev_pool),
                 list(s._ev_tensor), list(s._ev_nbytes)),
    )
    return out


def chain_groups(schedule: Schedule, rng) -> list[tuple[int, ...]]:
    """Groups merging random runs of consecutive same-resource ops, in
    head order."""
    last_group: dict[int, list[int]] = {}
    groups: list[list[int]] = []
    for op, code in enumerate(schedule._res):
        run = last_group.get(code)
        if run is not None and rng.random() < 0.5:
            run.append(op)
        else:
            run = [op]
            groups.append(run)
            last_group[code] = run
    return [tuple(g) for g in groups]


def violations(checker, original, optimized, op_map) -> list[str]:
    return [str(v) for v in checker(original, optimized, op_map)]


def assert_same_verdict(original, optimized, op_map) -> list[str]:
    fast = violations(check_conservation, original, optimized, op_map)
    assert fast == violations(ref.check_conservation, original, optimized, op_map)
    return fast


@pytest.mark.parametrize("name", SOURCES)
class TestPrimitivesMatchOracles:
    def test_greedy_order(self, name):
        schedule, hardware, timeline = source(name)
        n = len(schedule)
        assert greedy_order(schedule) == ref.greedy_order(
            schedule, lambda op, ready: (ready, op)
        )
        tied = np.random.default_rng(n).integers(0, 3, n).astype(float)
        assert greedy_order(schedule, tied) == ref.greedy_order(
            schedule, lambda op, ready: (tied[op], op)
        )

    def test_pass_candidates(self, name):
        """Each pass proposes exactly the oracle's rewrite, and both
        checkers accept it."""
        schedule, hardware, timeline = source(name)
        ctx = PassContext(schedule, timeline, hardware)
        retime = ref.greedy_order(schedule, ref.retime_priority(ctx))
        fill = ref.greedy_order(schedule, lambda op, ready: (ready, op))
        expected = {
            "coalesce-transfers": ref.coalesce_groups(ctx),
            "retime-prefetch": [(op,) for op in retime],
            "fill-bubbles": [(op,) for op in fill],
        }
        identity = [(op,) for op in range(len(schedule))]
        for p in (cls() for cls in (
            library.CoalesceTransfersPass,
            library.RetimePrefetchPass,
            library.FillBubblesPass,
        )):
            result = p.apply(ctx)
            want = expected[p.name]
            if result is None:
                assert want is None or want == identity, p.name
                continue
            assert result.op_map == tuple(want), p.name
            oracle, _ = ref.rebuild_schedule(schedule, want)
            assert columns(result.schedule) == columns(oracle), p.name
            assert assert_same_verdict(schedule, result.schedule, result.op_map) == []

    def test_order_groups_and_rebuild(self, name):
        schedule, _, _ = source(name)
        rng = np.random.default_rng(len(schedule))
        groups = chain_groups(schedule, rng)
        shuffled = [groups[i] for i in rng.permutation(len(groups))]
        for candidate in (groups, shuffled, groups[::-1]):
            ordered = order_groups(schedule, candidate)
            assert ordered == ref.order_groups(schedule, candidate)
            out, op_map = rebuild_schedule(schedule, candidate)
            oracle, oracle_map = ref.rebuild_schedule(schedule, candidate)
            assert op_map == oracle_map
            assert columns(out) == columns(oracle)
            assert assert_same_verdict(schedule, out, op_map) == []

    def test_rebuild_errors(self, name):
        schedule, _, _ = source(name)
        n = len(schedule)
        res = schedule._res
        mixed = next(
            (j for j in range(1, n) if res[j] != res[0]), None
        )
        bad_inputs = [
            [(i,) for i in range(n)] + [(0,)],  # duplicated
            [(i,) for i in range(n - 1)],  # not covering
            [(i,) for i in range(n)] + [(n,)],  # out of range
            [()] + [(i,) for i in range(n)],  # empty group
        ]
        if mixed is not None:
            bad_inputs.append(
                [(0, mixed)] + [(i,) for i in range(1, n) if i != mixed]
            )
        for groups in bad_inputs:
            with pytest.raises(ScheduleError) as fast:
                rebuild_schedule(schedule, groups)
            with pytest.raises(ScheduleError) as oracle:
                ref.rebuild_schedule(schedule, groups)
            assert str(fast.value) == str(oracle.value)

    def test_conservation_on_mutants(self, name):
        """Seeded mutants of a merge rewrite: both checkers return the
        same violation list, and the mutant is caught."""
        schedule, _, _ = source(name)
        rng = np.random.default_rng(len(schedule) + 1)
        groups = chain_groups(schedule, rng)
        rewritten, op_map = rebuild_schedule(schedule, groups)
        for label, (mutant, mutant_map) in mutants(rewritten, op_map, rng).items():
            found = assert_same_verdict(schedule, mutant, mutant_map)
            assert found, label


def mutants(rewritten: Schedule, op_map, rng) -> dict:
    """Seeded broken variants of a rewrite, each one fault."""
    g = len(op_map)
    out = {}
    multi = [j for j, group in enumerate(op_map) if len(group) > 1]
    j = int(rng.integers(0, g))
    k = int(rng.integers(0, g))

    if multi:
        m = multi[int(rng.integers(0, len(multi)))]
        out["dropped op"] = (rewritten, op_map[:m] + (op_map[m][:-1],) + op_map[m + 1:])
        s = clone(rewritten)
        s._dur[m] = math.nextafter(s._dur[m], math.inf)
        s._invalidate()
        out["altered merged duration"] = (s, op_map)
    if g > 1 and j != k:
        dup = op_map[:k] + (op_map[k] + op_map[j][:1],) + op_map[k + 1:]
        out["duplicated op"] = (rewritten, dup)
    s = clone(rewritten)
    s._res[j] = (s._res[j] + 1) % len(RESOURCES)
    s._invalidate()
    out["re-resourced op"] = (s, op_map)
    s = clone(rewritten)
    s._phases[j] = "moved-" + s._phases[j]
    s._invalidate()
    out["changed phase"] = (s, op_map)
    s = clone(rewritten)
    s.extend_raw([s._res[0]], [s._dur[0]], [()], ["extra"], [-1], [s._phases[0]], [-1])
    out["empty group"] = (s, op_map + ((),))
    s = clone(rewritten)
    s._ev_op.append(j)
    s._ev_kind.append(1)
    s._ev_pool.append("vram")
    s._ev_tensor.append("added")
    s._ev_nbytes.append(8)
    s._invalidate()
    out["added effect"] = (s, op_map)
    if rewritten._ev_op:
        e = int(rng.integers(0, len(rewritten._ev_op)))
        s = clone(rewritten)
        s._ev_nbytes[e] += 1
        s._invalidate()
        out["resized effect"] = (s, op_map)
        if g > 1:
            s = clone(rewritten)
            s._ev_op[e] = (s._ev_op[e] + 1) % g
            s._invalidate()
            out["moved effect"] = (s, op_map)
    return out


def test_mutants_cover_every_fault_kind():
    """The golden schedules exercise every mutant the generator makes."""
    schedule, _, _ = source("golden:klotski")
    rng = np.random.default_rng(7)
    rewritten, op_map = rebuild_schedule(schedule, chain_groups(schedule, rng))
    assert set(mutants(rewritten, op_map, rng)) == {
        "dropped op", "altered merged duration", "duplicated op",
        "re-resourced op", "changed phase", "empty group", "added effect",
        "resized effect", "moved effect",
    }


def test_conservation_of_an_empty_schedule():
    empty = Schedule()
    assert assert_same_verdict(empty, empty, ()) == []
    one = Schedule()
    one.compute(1.0, "x")
    assert assert_same_verdict(empty, one, ((),)) == [
        "[conservation] output op 0 has an empty group"
    ]
