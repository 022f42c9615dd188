"""Config fuzzing: randomized-but-seeded end-to-end validation cases.

Every case is a deterministic function of ``(base seed, case index)``
that samples a declarative :class:`~repro.api.RunConfig` — *not* raw
constructors — and materializes it through :mod:`repro.api`. That makes
every failure a **replayable JSON blob**: the report's ``failures``
entries (surfaced verbatim by ``repro.cli validate --json``) carry the
offending config's ``to_dict()`` form, so a CI failure reproduces with
``RunConfig.from_dict(blob)`` plus the recorded engine/capacity knobs.
Every case runs from that parse of its own blob, so a blob that does
not parse back to the sampled config is itself a case failure.
Two case families:

* **pipeline cases** — a random small model / hardware / workload /
  system point; the system's schedule is built once and executed under
  both the legacy and compiled engines. The two timelines are diffed
  op-for-op (:mod:`repro.validation.differential`) and the compiled
  timeline is invariant-checked (:mod:`repro.validation.invariants`).
  A second *near-OOM* execution pins the VRAM capacity to a random
  multiplier of the observed peak, forcing both engines to agree on
  whether — and exactly how — the run dies;
* **cluster cases** — a random fleet (heterogeneous hardware, random
  registry router and dispatch discipline, adversarial hot-expert
  skews) serving a random arrival process (Poisson, bursty MMPP, or
  trace replay), all encoded in the config's ``cluster``/``serve``
  sections. The report is checked against the cluster
  conservation/causality/accounting invariants, the whole simulation is
  re-run from scratch to prove determinism under a fixed seed, (in
  ``both`` engine mode) the serial and batched cluster engines are
  diffed bit-for-bit through
  :mod:`repro.validation.cluster_differential`, and cases that sampled a
  non-group scheduler also run the group-vs-continuous conservation
  differential (:mod:`repro.validation.scheduler_differential`).

The generated models/machines are deliberately tiny (a case runs in tens
of milliseconds) but structurally adversarial: dense and MoE models,
top-k up to the expert count, VRAM budgets straddling the working set,
group batching that forces partial-group deadline dispatches.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from repro.api import (
    ClusterConfig,
    RunConfig,
    ScenarioConfig,
    ServeConfig,
    SystemConfig,
    build_requests,
    build_scenario,
    build_system,
    pass_names,
    router_names,
    run_cluster,
    scheduler_names,
    system_names,
)
from repro.errors import ConfigError, OutOfMemoryError, ReproError
from repro.hardware.spec import GB, GiB, ComputeSpec, HardwareSpec, LinkSpec
from repro.model.config import ModelConfig
from repro.runtime.executor import Executor, ExecutorConfig
from repro.validation.differential import run_differential
from repro.validation.invariants import check_cluster, check_timeline


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing campaign.

    Attributes:
        cases: number of generated cases.
        seed: base seed; case ``i`` derives its RNG from ``(seed, i)``.
        engine: ``both`` (differential), ``compiled``, or ``legacy``
            (single-engine runs still get invariant checks).
        cluster_every: every N-th case is a cluster case (the rest are
            pipeline cases).
        chaos: when True, *every* case is a cluster case run under a
            fuzzed :class:`~repro.cluster.faults.FaultConfig` and random
            retry policy — the ``validate --chaos N`` campaign. Checks
            the fault-mode invariants (terminal-once conservation,
            downtime exclusion, outcome-aware accounting) plus
            byte-for-byte determinism; failures still carry replayable
            config blobs with the fault spec inline.
        passes: when True, every pipeline case additionally runs the
            schedule-optimization pass pipeline, under a queue drawn as
            a subset and order of the ``PASSES`` registry, through
            :func:`~repro.validation.run_pass_differential` — proving
            op-multiset conservation, timeline invariants, and makespan
            monotonicity on fuzzed schedules (``validate --passes``).
    """

    cases: int = 25
    seed: int = 0
    engine: str = "both"
    cluster_every: int = 4
    chaos: bool = False
    passes: bool = False

    def __post_init__(self):
        if self.cases < 0:
            raise ValueError("cases must be non-negative")
        if self.engine not in ("both", "compiled", "legacy"):
            raise ValueError("engine must be 'both', 'compiled', or 'legacy'")
        if self.cluster_every < 1:
            raise ValueError("cluster_every must be >= 1")


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing campaign.

    Attributes:
        seed: the campaign's base seed (replay with ``--seed``).
        cases: cases executed.
        pipeline_cases: pipeline (single-machine) cases among them.
        cluster_cases: cluster cases among them.
        ooms: cases where execution (consistently) ran out of memory.
        build_failures: cases whose schedule could not be built (planner
            infeasibility etc.) — skipped, not failures.
        violations: invariant violations, prefixed with the case tag.
        diffs: cross-engine disagreements, prefixed with the case tag.
        failures: one dict per failing case, carrying the replayable
            config blob (``config`` is ``RunConfig.to_dict()`` form)
            plus that case's violation/diff lines and runtime knobs.
    """

    seed: int = 0
    cases: int = 0
    pipeline_cases: int = 0
    cluster_cases: int = 0
    ooms: int = 0
    build_failures: int = 0
    violations: list[str] = field(default_factory=list)
    diffs: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no case violated an invariant or diverged."""
        return not self.violations and not self.diffs

    def record(
        self,
        tag: str,
        config: RunConfig,
        *,
        violations: list[str] = (),
        diffs: list[str] = (),
        **knobs,
    ) -> None:
        """Fold one case outcome in; failures capture the config blob.

        Args:
            tag: replay coordinates (case index, base seed, system).
            config: the sampled run config.
            violations: invariant violations (empty: none).
            diffs: cross-engine disagreements (empty: none).
            **knobs: runtime context outside the config (engine mode,
                near-OOM capacity override...).
        """
        self.violations.extend(f"{tag}: {v}" for v in violations)
        self.diffs.extend(f"{tag}: {d}" for d in diffs)
        if violations or diffs:
            self.failures.append(
                {
                    "tag": tag,
                    "config": config.to_dict(),
                    "violations": list(violations),
                    "diffs": list(diffs),
                    **knobs,
                }
            )

    def to_dict(self) -> dict:
        """JSON-compatible summary of the campaign.

        Returns:
            All counters plus the (possibly empty) failure lists; each
            ``failures`` entry embeds the replayable config blob.
        """
        return {
            "seed": self.seed,
            "cases": self.cases,
            "pipeline_cases": self.pipeline_cases,
            "cluster_cases": self.cluster_cases,
            "ooms": self.ooms,
            "build_failures": self.build_failures,
            "violations": self.violations,
            "diffs": self.diffs,
            "failures": self.failures,
            "ok": self.ok,
        }

    def summary(self) -> str:
        """One-paragraph human-readable campaign summary.

        Returns:
            The rendered text (one line per failure, if any).
        """
        lines = [
            f"fuzz: {self.cases} cases ({self.pipeline_cases} pipeline, "
            f"{self.cluster_cases} cluster), {self.ooms} consistent OOMs, "
            f"{self.build_failures} unbuildable (skipped)",
            f"invariant violations: {len(self.violations)}, "
            f"cross-engine diffs: {len(self.diffs)}",
        ]
        lines.extend(f"  VIOLATION {v}" for v in self.violations[:20])
        lines.extend(f"  DIFF {d}" for d in self.diffs[:20])
        if self.failures:
            lines.append(
                "replayable config blobs for every failure are in the "
                "JSON report (validate --json, 'failures')"
            )
        return "\n".join(lines)


# ---- random evaluation points ------------------------------------------------


def random_model(rng: np.random.Generator) -> dict:
    """Sample a tiny-but-structurally-diverse inline model spec.

    Args:
        rng: the case's seeded generator.

    Returns:
        A valid :class:`~repro.model.config.ModelConfig` field dict
        (dense or MoE, grouped-query or full attention, SwiGLU or
        classic FFN) — the ``scenario.model`` form of a config blob.
    """
    num_heads = int(rng.choice([2, 4, 8]))
    head_dim = int(rng.choice([8, 16]))
    divisors = [d for d in (1, 2, 4, 8) if num_heads % d == 0]
    num_experts = int(rng.choice([1, 2, 4, 8]))
    return dataclasses.asdict(
        ModelConfig(
            name=f"fuzz-moe-{num_experts}e",
            hidden_size=num_heads * head_dim,
            intermediate_size=int(rng.choice([2, 3, 4])) * num_heads * head_dim,
            num_layers=int(rng.integers(2, 7)),
            num_heads=num_heads,
            num_kv_heads=int(rng.choice(divisors)),
            num_experts=num_experts,
            top_k=int(rng.integers(1, num_experts + 1)),
            vocab_size=int(rng.choice([128, 256, 512])),
            ffn_matrices=2 if num_experts == 1 and rng.random() < 0.5 else 3,
        )
    )


def random_hardware(rng: np.random.Generator, model: dict) -> dict:
    """Sample an inline machine spec straddling the model's working set.

    Args:
        rng: the case's seeded generator.
        model: the inline model spec the machine will serve.

    Returns:
        A :class:`~repro.hardware.spec.HardwareSpec` field dict with
        VRAM between ~15% and ~300% of the model's total bytes, so
        placements range from fully resident to heavily offloaded (and
        occasionally infeasible).
    """
    total = max(ModelConfig(**model).total_bytes(), 1 << 20)
    vram = int(total * rng.uniform(0.15, 3.0))
    return dataclasses.asdict(
        HardwareSpec(
            name=f"fuzz-env-{int(vram / (1 << 20))}mb",
            gpu=ComputeSpec(
                "fuzz-gpu",
                float(rng.uniform(1e12, 20e12)),
                float(rng.uniform(50, 900)) * GB,
                kernel_overhead_s=float(rng.uniform(5e-6, 120e-6)),
            ),
            cpu=ComputeSpec(
                "fuzz-cpu",
                float(rng.uniform(0.05e12, 0.5e12)),
                float(rng.uniform(5, 50)) * GB,
                kernel_overhead_s=5e-6,
            ),
            vram_bytes=max(vram, 64 << 20),
            dram_bytes=int(rng.uniform(8, 64)) * GiB,
            disk_bytes=200 * GB,
            pcie_h2d=LinkSpec("h2d", float(rng.uniform(1, 30)) * GB),
            pcie_d2h=LinkSpec("d2h", float(rng.uniform(1, 30)) * GB),
            disk_link=LinkSpec(
                "disk", float(rng.uniform(0.2, 2.0)) * GB, latency_s=80e-6
            ),
        )
    )


# Option variants drawn next to every registered system: the Klotski
# knobs that reach builder paths the registry defaults do not.
SYSTEM_VARIANTS = (
    SystemConfig("klotski", {"quantize": True}),
    SystemConfig("klotski", {"use_spare_vram": False}),
)


def system_choices() -> tuple[SystemConfig, ...]:
    """Every system config a pipeline case can draw.

    Returns:
        One default config per name in the ``SYSTEMS`` registry (sorted),
        followed by :data:`SYSTEM_VARIANTS`; a newly registered system is
        fuzzed without touching this module.
    """
    return tuple(SystemConfig(name) for name in system_names()) + SYSTEM_VARIANTS


def random_system_config(rng: np.random.Generator) -> SystemConfig:
    """Sample a system config uniformly from :func:`system_choices`.

    Args:
        rng: the case's seeded generator.

    Returns:
        A registry-resolvable :class:`~repro.api.SystemConfig`.
    """
    choices = system_choices()
    return choices[int(rng.integers(0, len(choices)))]


def random_run_config(rng: np.random.Generator) -> RunConfig:
    """Sample a full pipeline evaluation point as a config blob.

    Args:
        rng: the case's seeded generator.

    Returns:
        A :class:`~repro.api.RunConfig` over a random inline model and
        machine, workload shape, routing statistics, and system.
    """
    model = random_model(rng)
    scenario = ScenarioConfig(
        model=model,
        env=random_hardware(rng, model),
        batch_size=int(rng.integers(1, 9)),
        n=int(rng.integers(1, 5)),
        prompt_len=int(rng.integers(8, 65)),
        gen_len=int(rng.integers(1, 6)),
        seed=int(rng.integers(0, 2**31)),
        skew=float(rng.uniform(0.8, 1.8)),
        correlation=float(rng.uniform(0.0, 0.9)),
        prefill_token_cap=int(rng.choice([64, 256, 2048])),
    )
    scenario, system = random_offload_point(rng, scenario, random_system_config(rng))
    return RunConfig(
        scenario=scenario,
        system=random_prefetcher_options(rng, system, model["num_experts"]),
    )


def random_offload_point(
    rng: np.random.Generator, scenario: ScenarioConfig, system: SystemConfig
) -> tuple[ScenarioConfig, SystemConfig]:
    """Move half of the Klotski and Fiddler cases to the offload extremes
    the uniform hardware draw misses, drawn right after the system (so
    every earlier draw replays unchanged) and before its prefetcher knobs.

    A Klotski case keeps its weights out of spare VRAM on a machine whose
    DRAM holds only part of the model, so the placement spills weights
    to disk; a Fiddler case gets a CPU fast and a host link slow enough
    that experts run on the CPU. Other systems draw but change nothing.

    Args:
        rng: the case's seeded generator.
        scenario: the drawn scenario; its inline machine may change.
        system: the drawn system config; a Klotski variant's options may
            change.

    Returns:
        The ``(scenario, system)`` pair.
    """
    u, scale = float(rng.random()), float(rng.uniform(0.2, 0.9))
    if u >= 0.5 or system.name not in ("klotski", "klotski(q)", "fiddler"):
        return scenario, system
    model = ModelConfig(**scenario.model)
    env = dict(scenario.env)
    if system.name == "fiddler":
        # VRAM a few times the model plus its prefill activations: the
        # expert cache (a tenth of VRAM) then leaves experts in DRAM.
        tokens = scenario.batch_size * scenario.prompt_len
        act = tokens * (4 * model.hidden_size + model.num_heads * scenario.prompt_len)
        env["vram_bytes"] = int(4 * (model.total_bytes() + act * model.dtype_bytes))
        env["cpu"] = dataclasses.asdict(
            ComputeSpec("fuzz-fast-cpu", 50e12 * scale, 2000 * scale * GB, kernel_overhead_s=1e-6)
        )
        env["pcie_h2d"] = dataclasses.asdict(LinkSpec("h2d", 0.05 * scale * GB))
    else:
        env["dram_bytes"] = max(int(model.total_bytes() * scale), 1 << 16)
        system = dataclasses.replace(
            system, options={**system.options, "use_spare_vram": False}
        )
    return dataclasses.replace(scenario, env=env), system


def random_prefetcher_options(
    rng: np.random.Generator, system: SystemConfig, num_experts: int
) -> SystemConfig:
    """Add a Klotski system's prefetcher knobs, drawn last in a case's
    config so that every earlier draw replays unchanged.

    Args:
        rng: the case's seeded generator.
        system: the drawn system config; any system other than the two
            Klotski variants is returned as is, drawing nothing.
        num_experts: the model's expert count (``prefetch_k``'s bound).

    Returns:
        ``system`` with ``path_length`` (1-3) and ``prefetch_k``
        (1..num_experts) options for a Klotski variant.
    """
    if system.name not in ("klotski", "klotski(q)"):
        return system
    options = dict(system.options)
    options["path_length"] = int(rng.integers(1, 4))
    options["prefetch_k"] = int(rng.integers(1, num_experts + 1))
    return dataclasses.replace(system, options=options)


def random_pass_queue(rng: np.random.Generator) -> tuple[str, ...]:
    """Sample a pass queue: a non-empty subset of the ``PASSES`` registry
    in a random order, drawn last in a pipeline case so that every
    earlier draw replays unchanged.

    Args:
        rng: the case's seeded generator.

    Returns:
        Registered pass names; a newly registered pass is drawn without
        touching this module.
    """
    names = pass_names()
    order = rng.permutation(len(names))
    size = int(rng.integers(1, len(names) + 1))
    return tuple(names[i] for i in order[:size])


# ---- case execution ----------------------------------------------------------


def _replay(sampled: RunConfig, report: FuzzReport, tag: str) -> RunConfig | None:
    """The case's config as its replay blob parses.

    Every case runs from ``RunConfig.from_dict`` of its own JSON blob, so
    the replay contract (the blob parses, to the sampled config) is
    checked on every case. A blob that fails it is recorded as a case
    failure and returns None.
    """
    try:
        config = RunConfig.from_dict(json.loads(json.dumps(sampled.to_dict())))
    except ConfigError as exc:
        report.record(tag, sampled, violations=[f"replay blob does not parse: {exc}"])
        return None
    if config != sampled:
        report.record(
            tag, sampled, violations=["replay blob parses to a different config"]
        )
        return None
    return config


def run_pipeline_case(
    case_seed: int, engine: str, report: FuzzReport, label: str = "",
    *, passes: bool = False,
) -> None:
    """Run one pipeline case and fold its outcome into ``report``.

    Args:
        case_seed: deterministic seed of this case.
        engine: ``both`` / ``compiled`` / ``legacy``.
        report: accumulator updated in place.
        label: replay coordinates prefixed to failure tags (the campaign
            runner passes ``--seed``/case-index information here).
        passes: additionally push the schedule through the optimizer
            pass pipeline, with a queue drawn by
            :func:`random_pass_queue`, and record any pass-differential
            violations.
    """
    rng = np.random.default_rng(case_seed)
    sampled = random_run_config(rng)
    report.pipeline_cases += 1
    config = _replay(
        sampled, report, f"pipeline {label or f'case-seed={case_seed}'}"
    )
    if config is None:
        return
    scenario = build_scenario(config.scenario)
    system = build_system(config.system)
    tag = f"pipeline {label or f'case-seed={case_seed}'} system={system.name}"
    try:
        built = system.build(scenario)
    except (ReproError, ValueError):
        report.build_failures += 1
        return
    schedule = built.schedule
    capacities = {
        "vram": scenario.hardware.usable_vram(),
        "dram": scenario.hardware.dram_bytes,
        "disk": scenario.hardware.disk_bytes,
    }

    if engine == "both":
        result = run_differential(
            schedule, scenario.hardware, capacities=capacities
        )
        report.record(tag, config, diffs=result.diffs, engine=engine)
        if result.oom:
            report.ooms += 1
            _near_oom_probe(schedule, scenario, config, rng, tag, report, peak=None)
            return
        timeline = result.timeline
        if timeline is None:
            return
    else:
        executor = Executor(scenario.hardware, ExecutorConfig(engine=engine))
        try:
            timeline = executor.run(schedule, capacities=capacities)
        except OutOfMemoryError:
            report.ooms += 1
            return

    violations = check_timeline(schedule, timeline, capacities=capacities)
    report.record(tag, config, violations=violations, engine=engine)
    if engine == "both":
        _near_oom_probe(
            schedule, scenario, config, rng, tag, report,
            peak=timeline.memory_peak.get("vram", 0),
        )
    if passes:
        from repro.validation.pass_differential import run_pass_differential

        queue = random_pass_queue(rng)
        diff = run_pass_differential(
            schedule, scenario.hardware, passes=queue, capacities=capacities
        )
        report.record(
            f"{tag} [passes]",
            config,
            violations=[str(v) for v in diff.violations],
            queue=list(queue),
            passes=list(diff.pipeline.accepted),
        )


def _near_oom_probe(schedule, scenario, config, rng, tag, report, *, peak) -> None:
    """Re-run with a VRAM budget pinned near the observed peak.

    Both engines must agree on the outcome right at the memory cliff —
    the historically bug-rich boundary (tie-broken frees vs. allocs,
    first-violation selection). ``peak`` is the already-observed VRAM
    peak; pass None (the OOM branch, where no timeline exists) to
    measure it with an unchecked execution.
    """
    if peak is None:
        unchecked = Executor(
            scenario.hardware,
            ExecutorConfig(check_memory=False, engine="compiled"),
        )
        peak = unchecked.run(schedule).memory_peak.get("vram", 0)
    if peak <= 0:
        return
    capacity = max(1, int(peak * rng.uniform(0.85, 1.15)))
    result = run_differential(
        schedule, scenario.hardware, capacities={"vram": capacity}
    )
    probe_tag = f"{tag} [near-oom cap={capacity}]"
    report.record(probe_tag, config, diffs=result.diffs, near_oom_cap=capacity)
    if result.oom:
        report.ooms += 1
    elif result.timeline is not None:
        violations = check_timeline(
            schedule, result.timeline, capacities={"vram": capacity}
        )
        report.record(
            probe_tag, config, violations=violations, near_oom_cap=capacity
        )


def random_serve_config(rng: np.random.Generator, model: dict) -> ServeConfig:
    """Sample a request-stream config (arrival process + tagging policy).

    Args:
        rng: the case's seeded generator.
        model: the inline model spec (bounds the pinned-expert draw).

    Returns:
        A :class:`~repro.api.ServeConfig`: Poisson, bursty MMPP, or an
        inline trace, tagged with Zipf-skewed, adversarially pinned, or
        absent hot experts.
    """
    count = int(rng.integers(6, 33))
    kind = rng.random()
    seed = int(rng.integers(0, 2**31))
    if kind < 0.4:
        arrival = "poisson"
        options = {
            "rate_per_s": float(rng.uniform(0.2, 8.0)),
            "prompt_len_mean": int(rng.integers(16, 129)),
            "gen_len": int(rng.integers(1, 6)),
            "seed": seed,
        }
    elif kind < 0.7:
        arrival = "bursty"
        options = {
            "base_rate_per_s": float(rng.uniform(0.1, 1.0)),
            "burst_rate_per_s": float(rng.uniform(2.0, 20.0)),
            "switch_prob": float(rng.uniform(0.05, 0.5)),
            "prompt_len_mean": int(rng.integers(16, 129)),
            "gen_len": int(rng.integers(1, 6)),
            "seed": seed,
        }
    else:
        arrival = "trace"
        arrivals = np.cumsum(rng.uniform(0.0, 2.0, size=count))
        options = {
            "records": [
                {
                    "arrival_s": float(arrivals[i]),
                    "prompt_len": int(rng.integers(8, 129)),
                    "gen_len": int(rng.integers(1, 6)),
                }
                for i in range(count)
            ]
        }
    style = rng.random()
    num_experts = int(model["num_experts"])
    if style < 0.4:  # Zipf-tagged, possibly extreme skew
        hot = {"mode": "zipf", "skew": float(rng.uniform(1.0, 2.5)), "seed": seed}
    elif style < 0.6 and num_experts > 1:  # adversarial: one hot expert
        hot = {"mode": "pin", "expert": int(rng.integers(0, num_experts))}
    else:
        hot = {"mode": "none"}
    return ServeConfig(
        arrival=arrival, arrival_options=options, requests=count, hot_experts=hot
    )


def random_fault_config(rng: np.random.Generator, n_replicas: int) -> dict:
    """Sample an inline :class:`~repro.cluster.faults.FaultConfig` dict.

    Rates are deliberately brutal — fuzz streams span tens of simulated
    seconds, so hourly rates in the hundreds make crashes, stragglers,
    and transient failures all but certain while staying valid configs.

    Args:
        rng: the case's seeded generator.
        n_replicas: fleet size (bounds join/drain replica ids).

    Returns:
        The ``cluster.faults`` inline-dict form of a fuzzed fault model.
    """
    joins, drains = [], []
    for rid in range(n_replicas):
        roll = rng.random()
        # Never drain the whole fleet from t=0: keep replica 0 drain-free
        # so some capacity exists (all-shed runs are legal but vacuous).
        if roll < 0.25:
            joins.append([float(rng.uniform(0.0, 20.0)), rid])
        elif roll < 0.45 and rid > 0:
            drains.append([float(rng.uniform(0.0, 30.0)), rid])
    return {
        "seed": int(rng.integers(0, 2**31)),
        "crash_rate_per_hour": (
            float(rng.uniform(30.0, 600.0)) if rng.random() < 0.7 else 0.0
        ),
        "crash_downtime_s": float(rng.uniform(0.5, 20.0)),
        "straggler_rate_per_hour": (
            float(rng.uniform(30.0, 600.0)) if rng.random() < 0.6 else 0.0
        ),
        "straggler_duration_s": float(rng.uniform(1.0, 30.0)),
        "straggler_factor": float(rng.uniform(1.1, 4.0)),
        "transient_failure_prob": (
            float(rng.uniform(0.05, 0.5)) if rng.random() < 0.6 else 0.0
        ),
        "breaker_threshold": int(rng.integers(0, 5)),
        "breaker_cooldown_s": float(rng.uniform(1.0, 30.0)),
        "joins": joins,
        "drains": drains,
        "shed_queue_depth": (
            int(rng.integers(1, 9)) if rng.random() < 0.4 else 0
        ),
        "shed_slack_s": (
            float(rng.uniform(1.0, 60.0)) if rng.random() < 0.4 else 0.0
        ),
    }


def random_retry_config(rng: np.random.Generator) -> dict:
    """Sample a ``cluster.retry`` dict (empty half the time: defaults).

    Args:
        rng: the case's seeded generator.

    Returns:
        A :class:`~repro.cluster.faults.RetryPolicy` field dict, or
        ``{}`` to exercise the default policy path.
    """
    if rng.random() < 0.5:
        return {}
    return {
        "max_attempts": int(rng.integers(1, 6)),
        "backoff_base_s": float(rng.uniform(0.05, 2.0)),
        "backoff_multiplier": float(rng.uniform(1.0, 3.0)),
        "jitter_frac": float(rng.uniform(0.0, 0.5)),
        "retry_budget": int(rng.integers(1, 51)) if rng.random() < 0.3 else 0,
        "seed": int(rng.integers(0, 2**31)),
    }


def random_cluster_run_config(
    rng: np.random.Generator, case_seed: int, *, chaos: bool = False
) -> RunConfig:
    """Sample a full cluster evaluation point as a config blob.

    Args:
        rng: the case's seeded generator.
        case_seed: the case's seed (pins the fleet's scenario seed).
        chaos: also sample a fault model and retry policy into the
            ``cluster`` section (the ``validate --chaos`` campaign).

    Returns:
        A :class:`~repro.api.RunConfig` with ``cluster`` and ``serve``
        sections: a heterogeneous fleet behind a random registry router
        and dispatch discipline serving a random arrival process.
    """
    model = random_model(rng)
    n_replicas = int(rng.integers(1, 5))
    envs = tuple(random_hardware(rng, model) for _ in range(n_replicas))
    scenario = ScenarioConfig(
        model=model,
        env=envs[0],
        batch_size=int(rng.integers(1, 5)),
        n=1,
        prompt_len=64,
        gen_len=4,
        seed=int(case_seed % 1009),
    )
    cluster = ClusterConfig(
        replicas=n_replicas,
        envs=envs,
        router=str(rng.choice(router_names())),
        group_batches=int(rng.integers(1, 4)),
        max_wait_s=float(rng.uniform(0.5, 30.0)),
        slo_s=float(rng.uniform(5.0, 300.0)),
        partition_experts=bool(rng.random() < 0.8),
        faults=random_fault_config(rng, n_replicas) if chaos else "",
        retry=random_retry_config(rng) if chaos else {},
    )
    serve = random_serve_config(rng, model)
    # Drawn last, in the order they were added, so every earlier draw —
    # and hence every case seed's fleet, stream, and fault plan —
    # replays unchanged. Half the fleets derive their residency slots
    # from placement (0), half pin 1..num_experts per replica.
    scheduler = str(rng.choice(scheduler_names()))
    slots = 0
    if rng.random() < 0.5:
        slots = int(rng.integers(1, model["num_experts"] + 1))
    cluster = dataclasses.replace(
        cluster, scheduler=scheduler, expert_slots_per_replica=slots
    )
    return RunConfig(scenario=scenario, cluster=cluster, serve=serve)


def run_cluster_case(
    case_seed: int,
    report: FuzzReport,
    label: str = "",
    engine: str = "both",
    chaos: bool = False,
) -> None:
    """Run one cluster case (invariants + determinism) into ``report``.

    Args:
        case_seed: deterministic seed of this case.
        report: accumulator updated in place.
        label: replay coordinates prefixed to failure tags.
        engine: ``both`` additionally runs the serial and batched
            cluster engines through
            :func:`~repro.validation.run_cluster_differential`; any
            other value skips the cross-engine pass.
        chaos: fuzz a fault model into the config; with an active plan
            the cross-engine pass degenerates into proving the
            fault-fallback path is identical from every engine entry
            point, which is exactly the property it should pin.
    """
    rng = np.random.default_rng(case_seed)
    sampled = random_cluster_run_config(rng, case_seed, chaos=chaos)
    kind = "chaos" if chaos else "cluster"
    tag = (
        f"{kind} {label or f'case-seed={case_seed}'} "
        f"router={sampled.cluster.router} scheduler={sampled.cluster.scheduler}"
    )
    report.cluster_cases += 1
    config = _replay(sampled, report, tag)
    if config is None:
        return
    requests = build_requests(config)

    def simulate():
        # Each run gets its own group-timing cache: if the second run
        # reused the process-wide memo the first run populated, the
        # determinism check below could never catch nondeterministic
        # group timings. The request stream is built once above and
        # shared — generation is seed-deterministic anyway.
        return run_cluster(config, shared_cache={}, requests=requests)

    try:
        first = simulate()
    except OutOfMemoryError:
        # The sampled fleet cannot serve the sampled groups at all — an
        # infeasible configuration, not an invariant violation.
        report.build_failures += 1
        return
    except ReproError as exc:
        report.record(tag, config, violations=[f"simulation raised {exc!r}"])
        return
    report.record(tag, config, violations=check_cluster(first, requests))

    # Determinism: a from-scratch rebuild (with its own empty timing
    # cache, so every group is genuinely re-simulated) must reproduce the
    # report byte-for-byte.
    second = simulate()
    if json.dumps(first.to_dict(), sort_keys=True) != json.dumps(
        second.to_dict(), sort_keys=True
    ):
        report.record(tag, config, diffs=["re-run produced a different report"])

    if engine == "both":
        # Cross-engine pass: the batched fleet engine must reproduce the
        # serial report bit-for-bit on this same config.
        from repro.validation.cluster_differential import (
            run_cluster_differential,
        )

        result = run_cluster_differential(
            config, shared_cache={}, requests=requests
        )
        report.record(tag, config, diffs=result.diffs, engine=engine)

    if config.cluster.scheduler != "group":
        # Non-default disciplines are also held to the group loop by the
        # conservation oracle: same terminal id set, exactly once each.
        from repro.validation.scheduler_differential import (
            run_scheduler_differential,
        )

        try:
            outcome = run_scheduler_differential(
                config, shared_cache={}, requests=requests
            )
        except OutOfMemoryError:
            # The group loop runs group shapes the continuous calibration
            # never probed; an infeasible one is a fleet limit, not a bug.
            return
        report.record(tag, config, diffs=outcome.diffs, scheduler_differential=True)


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run a fuzzing campaign.

    Args:
        config: campaign knobs (case count, base seed, engine mode).

    Returns:
        The aggregated :class:`FuzzReport`; ``report.ok`` is the
        pass/fail signal, and every failure entry embeds its replayable
        config blob.
    """
    report = FuzzReport(seed=config.seed)
    for i in range(config.cases):
        case_seed = int(
            np.random.default_rng([config.seed, i]).integers(0, 2**63)
        )
        report.cases += 1
        # Failure tags carry the replay coordinates: same --seed plus a
        # --fuzz count past the failing case index reruns the case.
        label = f"case {i} of --seed {config.seed}"
        if config.chaos:
            # Chaos campaign: every case is a cluster run under a fuzzed
            # fault plan (replayable via the blob's cluster.faults).
            run_cluster_case(
                case_seed, report, label, engine=config.engine, chaos=True
            )
        elif (i + 1) % config.cluster_every == 0:
            run_cluster_case(case_seed, report, label, engine=config.engine)
        else:
            run_pipeline_case(
                case_seed, config.engine, report, label, passes=config.passes
            )
    return report
