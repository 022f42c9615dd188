"""The step pass vs the per-layer decider (tests/emission_reference.py).

``PipelineBuilder`` decides every layer of a step at once over arrays.
These tests hold it to the per-layer decider it replaced, column for
column — resources, durations (bit for bit), dependency tuples, labels,
layers, phases, batches, the raw memory-effect stream in attachment
order, and each step's head op — on every registered system's golden
scenario, the builder edge shapes the rows goldens pin, fuzzed feature
combinations and placements (disk spills, resident weights, KV in DRAM
or VRAM, sparse attention, several groups on one builder), wide and
narrow batch groups, and the ``validate --fuzz`` cases of ``--seed 0``
that read spilled weights from disk or run experts on the CPU.
"""

import dataclasses

import numpy as np
import pytest

import repro.systems
from repro.api import build_scenario, build_system, system_names
from repro.api.config import SystemConfig
from repro.compression.sparse_attention import SparseAttentionConfig
from repro.core.pipeline import PipelineBuilder, PipelineFeatures
from repro.core.placement import PlacementPlan
from repro.core.prefetcher import ExpertPrefetcher
from repro.hardware.spec import GB, ComputeSpec, LinkSpec
from repro.routing.workload import Workload
from repro.runtime.schedule import CPU, DISK_IO, RESOURCE_CODES, Schedule
from repro.scenario import Scenario
from repro.validation.fuzz import random_run_config
from tests.conftest import SMALL_MIXTRAL, TINY_DENSE, TINY_MOE, small_hardware
from tests.emission_reference import ReferenceBuilder
from tests.test_goldens import (
    EDGE_FEATURES,
    _dense_scenario,
    _disk_level,
    _fixed_placement,
    _planned,
    _scenario,
)

# validate --fuzz cases of --seed 0 whose schedules read a spilled weight
# from disk (Klotski) or run an expert on the CPU (Fiddler).
OFFLOAD_FUZZ_CASES = (2, 40, 42, 46, 52, 62, 68, 85, 89, 94, 98)
FEATURE_SEEDS = tuple(range(48))
WIDE_N = (1, 2, 15, *range(62, 71))


def columns(schedule: Schedule) -> dict:
    """Every authored column of a schedule, effects in attachment order."""
    return {
        "resources": schedule._res,
        "durations": schedule._dur,
        "deps": schedule._deps,
        "labels": schedule._rendered_labels(),
        "layers": schedule._layers,
        "phases": schedule._phases,
        "batches": schedule._batches,
        "effects": list(zip(
            schedule._ev_op, schedule._ev_kind, schedule._ev_pool,
            schedule._ev_tensor, schedule._ev_nbytes,
        )),
    }


def assert_same(got: Schedule, want: Schedule) -> None:
    got, want = columns(got), columns(want)
    for name, column in want.items():
        if got[name] != column:
            at = next(
                (i for i, (a, b) in enumerate(zip(got[name], column)) if a != b),
                min(len(got[name]), len(column)),
            )
            pytest.fail(
                f"{name} differ at row {at} (of {len(got[name])} vs {len(column)}): "
                f"{got[name][at:at + 3]!r} != {column[at:at + 3]!r}"
            )


def built_by(builder_cls, system, scenario, monkeypatch):
    """``system.build(scenario)`` with ``builder_cls`` emitting."""
    with monkeypatch.context() as patch:
        patch.setattr(repro.systems, "PipelineBuilder", builder_cls)
        return system.build(scenario)


def check_system(system, scenario, monkeypatch) -> Schedule:
    got = built_by(PipelineBuilder, system, scenario, monkeypatch)
    want = built_by(ReferenceBuilder, system, scenario, monkeypatch)
    assert got.build.step_last_op == want.build.step_last_op
    assert got.build.groups_built == want.build.groups_built
    assert_same(got.schedule, want.schedule)
    return got.schedule


@pytest.mark.parametrize("name", system_names())
def test_registered_systems_on_the_golden_scenario(name, monkeypatch):
    check_system(build_system(SystemConfig(name)), _scenario(), monkeypatch)


def edge_schedule(builder_cls, scenario, placement, sparse_attention=None) -> Schedule:
    """Every edge feature set built in turn into one schedule."""
    model, schedule = scenario.model, Schedule()
    for features, learned in EDGE_FEATURES:
        prefetcher = (
            ExpertPrefetcher(model.num_layers, model.num_experts, top_k=model.top_k)
            if learned and not model.is_dense
            else None
        )
        builder_cls(
            cost_model=scenario.cost_model(),
            inventory=scenario.inventory(),
            oracle=scenario.make_oracle(),
            workload=scenario.workload,
            placement=placement,
            prefetcher=prefetcher,
            features=features,
            sparse_attention=sparse_attention,
        ).build(schedule)
    return schedule


EDGE_SHAPES = {
    "disk": lambda: (_scenario(), _fixed_placement(_scenario(), _disk_level, "dram"), None),
    "dense": lambda: (_dense_scenario(), _planned(_dense_scenario()), None),
    "kv-dram": lambda: (_scenario(), _planned(_scenario(), kv_level="dram"), None),
    "sparse-attention": lambda: (
        _scenario(),
        _planned(_scenario(), kv_level="vram"),
        SparseAttentionConfig(enabled=True, sinks=4, window=16),
    ),
    "all-resident": lambda: (
        _scenario(), _fixed_placement(_scenario(), lambda spec: "vram", "vram"), None
    ),
}


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
def test_builder_edge_shapes(shape):
    args = EDGE_SHAPES[shape]()
    assert_same(edge_schedule(PipelineBuilder, *args), edge_schedule(ReferenceBuilder, *args))


def fast_cpu_hardware():
    """A machine whose CPU beats moving most experts over its host link."""
    return dataclasses.replace(
        small_hardware(),
        cpu=ComputeSpec("fast-cpu", 20e12, 800 * GB, kernel_overhead_s=1e-6),
        pcie_h2d=LinkSpec("h2d", 0.05 * GB),
    )


def random_case(seed: int) -> dict:
    """A random builder input: model, machine, workload, features, a
    per-tensor placement over VRAM / DRAM / disk, the KV level, sparse
    attention, a prefetcher and the number of groups decided in turn."""
    rng = np.random.default_rng(seed)
    model = (TINY_MOE, SMALL_MIXTRAL, TINY_DENSE)[int(rng.integers(0, 3))]
    hardware = fast_cpu_hardware() if rng.random() < 0.5 else small_hardware()
    workload = Workload(
        int(rng.integers(1, 5)), int(rng.integers(1, 5)),
        int(rng.integers(4, 33)), int(rng.integers(1, 5)),
    )
    scenario = Scenario(model, hardware, workload, seed=int(rng.integers(0, 1000)))
    features = PipelineFeatures(*(bool(b) for b in rng.integers(0, 2, size=5)))
    weights = rng.dirichlet(np.ones(3))
    levels = ("vram", "dram", "disk")
    location = {
        spec.tensor_id: levels[int(rng.choice(3, p=weights))] for spec in scenario.inventory()
    }
    placement = PlacementPlan(
        location=location,
        kv_level=("vram", "dram")[int(rng.integers(0, 2))],
        pinned=bool(rng.integers(0, 2)),
        working_reserve_bytes=0,
        activation_reserve_bytes=1 << 20,
        resident_bytes=1 << 24,
    )
    sparse = SparseAttentionConfig(enabled=bool(rng.integers(0, 2)), sinks=2, window=8)
    learned = not model.is_dense and rng.random() < 0.7
    options = {
        "path_length": int(rng.integers(1, 4)),
        "prefetch_k": int(rng.integers(1, model.num_experts + 1)),
    }
    return dict(
        scenario=scenario, features=features, placement=placement, sparse=sparse,
        learned=learned, options=options, groups=int(rng.integers(1, 4)),
    )


def decide_groups(builder_cls, case) -> tuple[Schedule, list]:
    """Decide the case's groups in turn on one builder (each with its own
    oracle stream and prefetcher, as sequential systems do), then
    materialize them at once."""
    scenario, model = case["scenario"], case["scenario"].model

    def prefetcher():
        if not case["learned"]:
            return None
        return ExpertPrefetcher(
            model.num_layers, model.num_experts, top_k=model.top_k, **case["options"]
        )

    builder = builder_cls(
        cost_model=scenario.cost_model(),
        inventory=scenario.inventory(),
        oracle=scenario.make_oracle(),
        workload=scenario.workload,
        placement=case["placement"],
        prefetcher=prefetcher(),
        features=case["features"],
        sparse_attention=case["sparse"],
    )
    heads = []
    for group in range(case["groups"]):
        if group:
            builder.oracle = scenario.make_oracle(batch_offset=group)
            builder.prefetcher = prefetcher()
        heads.append(builder.decide())
    schedule = Schedule()
    builder.materialize(schedule)
    schedule.validate()
    return schedule, heads


@pytest.mark.parametrize("seed", FEATURE_SEEDS)
def test_fuzzed_feature_combinations(seed):
    case = random_case(seed)
    got, got_heads = decide_groups(PipelineBuilder, case)
    want, want_heads = decide_groups(ReferenceBuilder, case)
    assert got_heads == want_heads
    assert_same(got, want)


def test_fuzzed_cases_reach_every_branch():
    """The feature seeds cover every switch both ways, both KV levels,
    disk reads, CPU experts and multi-group builders."""
    seen = set()
    for seed in FEATURE_SEEDS:
        case = random_case(seed)
        schedule, _ = decide_groups(PipelineBuilder, case)
        seen |= {(f.name, getattr(case["features"], f.name))
                 for f in dataclasses.fields(PipelineFeatures)}
        seen.add(("kv", case["placement"].kv_level))
        seen.add(("groups>1", case["groups"] > 1))
        seen.add(("dense", case["scenario"].model.is_dense))
        for resource in (DISK_IO, CPU):
            seen.add((resource, RESOURCE_CODES[resource] in schedule._res))
    expected = {(f.name, b) for f in dataclasses.fields(PipelineFeatures) for b in (False, True)}
    expected |= {("kv", "vram"), ("kv", "dram"), ("groups>1", True), ("dense", True)}
    expected |= {(DISK_IO, True), (CPU, True)}
    assert expected <= seen


@pytest.mark.parametrize("n", WIDE_N)
@pytest.mark.parametrize("kv_level", ["vram", "dram"])
def test_batch_group_widths(n, kv_level):
    scenario = Scenario(TINY_MOE, small_hardware(), Workload(1, n, 8, 2), seed=5)
    case = dict(
        scenario=scenario, features=PipelineFeatures(),
        placement=_planned(scenario, kv_level=kv_level),
        sparse=None, learned=True, options={"path_length": 2, "prefetch_k": 2}, groups=1,
    )
    got, got_heads = decide_groups(PipelineBuilder, case)
    want, want_heads = decide_groups(ReferenceBuilder, case)
    assert got_heads == want_heads
    assert_same(got, want)


@pytest.mark.parametrize("case", OFFLOAD_FUZZ_CASES)
def test_fuzz_cases_with_disk_reads_or_cpu_experts(case, monkeypatch):
    seed = int(np.random.default_rng([0, case]).integers(0, 2**63))
    config = random_run_config(np.random.default_rng(seed))
    schedule = check_system(
        build_system(config.system), build_scenario(config.scenario), monkeypatch
    )
    reached = {RESOURCE_CODES[DISK_IO], RESOURCE_CODES[CPU]}.intersection(schedule._res)
    assert reached, "the case no longer reaches a disk read or a CPU expert"
