"""The paper's evaluation (§9) as registered, declarative experiments.

Each figure/table of the Klotski evaluation is one
:class:`~repro.experiments.spec.ExperimentSpec` (a model x env x workload
x system grid with per-axis overrides) plus a Markdown renderer, both
registered with :mod:`repro.experiments.registry`. The benchmark modules
under ``benchmarks/`` are thin wrappers over these definitions, and
``repro.cli experiments report`` folds the cached cell artifacts into
``docs/results.md``.

Two operating points exist: the *reduced* point (default; minutes on a
laptop) and the paper's *full* scale (``REPRO_FULL=1`` / ``--full``:
batch sizes 4-64, output length 32, n = 15 / n = 10 for Mixtral-8x22B on
Env1). Cells shared between the two points — or between two experiments,
like the Figure 10/11 end-to-end grid — are content-addressed and
computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.bubbles import analyze_bubbles
from repro.analysis.plots import bar_chart, render_timeline
from repro.analysis.reporting import ResultGrid
from repro.api import build_scenario, build_system, scenario_from_cell_params
from repro.core.engine import KlotskiOptions, KlotskiSystem, warm_up_prefetcher
from repro.core.pipeline import PipelineFeatures
from repro.core.prefetcher import ExpertPrefetcher
from repro.experiments.registry import Experiment, register_experiment
from repro.experiments.runner import ExperimentRun, cell_function
from repro.experiments.spec import ExperimentSpec
from repro.hardware.spec import GB, GiB, ENVIRONMENTS
from repro.model.config import MIXTRAL_8X7B, MODELS
from repro.model.tokenizer import synthetic_corpus
from repro.model.transformer import MoETransformer
from repro.routing.synthetic import RoutingModelConfig, SyntheticRouter
from repro.routing.trace import ExpertTrace, StepTrace
from repro.routing.workload import Workload
from repro.runtime.schedule import D2H, GPU, H2D, H2D_OD
from repro.scenario import Scenario

# ---------------------------------------------------------------------------
# Operating point (§9.1): shared by the CLI, the report, and benchmarks/.

PROMPT_LEN = 512
SEED = 1


def eval_batch_sizes(full: bool) -> list[int]:
    """Figure 10 batch-size sweep for the given operating point.

    Args:
        full: paper scale when True, reduced point otherwise.

    Returns:
        The list of batch sizes.
    """
    return [4, 8, 16, 32, 64] if full else [4, 16, 64]


def eval_gen_len(full: bool) -> int:
    """Output length for the given operating point (paper: 32).

    Args:
        full: paper scale when True, reduced point otherwise.

    Returns:
        The number of generated tokens per sequence.
    """
    return 32 if full else 8


def fig14_n_values(full: bool) -> list[int]:
    """Figure 14 batch-group-size sweep for the operating point.

    Args:
        full: paper scale when True, reduced point otherwise.

    Returns:
        The list of n values.
    """
    return list(range(3, 16)) if full else [3, 6, 9, 12, 15]


@dataclass(frozen=True)
class EvalScenario:
    """One of the paper's three evaluation columns (Figure 10).

    Attributes:
        key: short identifier (``8x7b-env1``, ...).
        model_name: :data:`repro.model.config.MODELS` key.
        env_name: :data:`repro.hardware.spec.ENVIRONMENTS` key.
        n_full: paper batch-group size (§9.1: 15, or 10 for 8x22B/Env1).
        n_reduced: batch-group size at the reduced operating point.
    """

    key: str
    model_name: str
    env_name: str
    n_full: int
    n_reduced: int

    def n(self, full: bool) -> int:
        """Batch-group size for the operating point."""
        return self.n_full if full else self.n_reduced

    def scenario(
        self, batch_size: int, *, full: bool = False, gen_len: int | None = None
    ) -> Scenario:
        """Build the pinned-routing :class:`~repro.scenario.Scenario`.

        Args:
            batch_size: sequences per batch.
            full: operating point (selects n and the default gen length).
            gen_len: override for the generated length.

        Returns:
            The scenario with ``n`` batches at this column's model/env.
        """
        workload = Workload(
            batch_size,
            self.n(full),
            PROMPT_LEN,
            gen_len if gen_len else eval_gen_len(full),
        )
        return Scenario(
            MODELS[self.model_name], ENVIRONMENTS[self.env_name], workload, seed=SEED
        )


EVAL_SCENARIOS = (
    EvalScenario("8x7b-env1", "mixtral-8x7b", "env1", 15, 6),
    EvalScenario("8x22b-env1", "mixtral-8x22b", "env1", 10, 5),
    EvalScenario("8x22b-env2", "mixtral-8x22b", "env2", 15, 6),
)
SCENARIO_BY_KEY = {s.key: s for s in EVAL_SCENARIOS}

E2E_SYSTEMS = (
    "klotski",
    "klotski(q)",
    "accelerate",
    "fastgen",
    "flexgen",
    "moe-infinity",
    "fiddler",
)

_SCENARIO_OVERRIDES = tuple(
    (
        {"scenario": s.key},
        {"model": s.model_name, "env": s.env_name},
    )
    for s in EVAL_SCENARIOS
)


def _scenario_overrides_with_n(full: bool) -> tuple:
    return tuple(
        (
            {"scenario": s.key},
            {"model": s.model_name, "env": s.env_name, "n": s.n(full)},
        )
        for s in EVAL_SCENARIOS
    )


def _cell_scenario(params: dict) -> Scenario:
    """Materialize a cell's scenario through the declarative config."""
    return build_scenario(scenario_from_cell_params(params))


# ---------------------------------------------------------------------------
# Cell functions (pure measurements; JSON in, JSON out).


@cell_function("e2e")
def run_e2e_cell(params: dict) -> dict:
    """One (scenario, batch size, system) end-to-end point (Figs 10/11/14).

    Args:
        params: model/env/n/batch_size/prompt_len/gen_len/seed/system.

    Returns:
        throughput (tok/s), latency, GPU utilization, and OOM status.
    """
    scenario = _cell_scenario(params)
    result = build_system(params["system"]).run_safe(scenario)
    if result.oom:
        return {
            "oom": True,
            "oom_reason": result.oom_reason,
            "throughput": 0.0,
            "latency_s": None,
            "gpu_utilization": None,
        }
    return {
        "oom": False,
        "oom_reason": "",
        "throughput": result.metrics.throughput,
        "latency_s": result.metrics.latency_s,
        "gpu_utilization": result.metrics.gpu_utilization,
    }


@cell_function("table1")
def run_table1_cell(params: dict) -> dict:
    """Table 1: the dense-model overlap strategy on one small model.

    The paper's Table 1 measures these models *with offloading active*,
    so spare-VRAM residency is disabled: weights always stream from DRAM.

    Args:
        params: model/env/n/batch_size/prompt_len/gen_len/seed and
            ``variant`` (``original`` or ``strategy``).

    Returns:
        throughput and GPU utilization of the variant.
    """
    scenario = _cell_scenario(params)
    if params["variant"] == "original":
        system = KlotskiSystem(
            KlotskiOptions(
                features=PipelineFeatures.simple_pipeline(),
                warmup_steps=0,
                use_spare_vram=False,
            ),
            name="original",
        )
        system.sequential = True  # one batch at a time, like plain offloading
    else:
        system = KlotskiSystem(
            KlotskiOptions(
                features=PipelineFeatures(hot_prefetch=False, adjust_order=False),
                warmup_steps=0,
                use_spare_vram=False,
            ),
            name="strategy",
        )
    metrics = system.run(scenario).metrics
    return {
        "throughput": metrics.throughput,
        "gpu_utilization": metrics.gpu_utilization,
    }


@cell_function("table2")
def run_table2_cell(params: dict) -> dict:
    """Table 2: the hardware facts of one environment preset.

    Args:
        params: ``env`` (environment preset name).

    Returns:
        GPU name, VRAM/DRAM sizes (GiB), and disk/PCIe bandwidths (GB/s).
    """
    hw = ENVIRONMENTS[params["env"]]
    return {
        "gpu": hw.gpu.name,
        "vram_gib": hw.vram_bytes // GiB,
        "dram_gib": hw.dram_bytes // GiB,
        "disk_gbps": hw.disk_link.bandwidth_bytes_per_s / GB,
        "pcie_gbps": hw.pcie_h2d.bandwidth_bytes_per_s / GB,
    }


ABLATION_VARIANTS = (
    "simple pipeline",
    "+ multi batches",
    "+ only prefetch hot",
    "klotski (+ adjust order)",
    "klotski(q)",
)


def _ablation_features(variant: str) -> PipelineFeatures:
    return {
        "simple pipeline": PipelineFeatures.simple_pipeline(),
        "+ multi batches": PipelineFeatures(hot_prefetch=False, adjust_order=False),
        "+ only prefetch hot": PipelineFeatures(adjust_order=False),
        "klotski (+ adjust order)": PipelineFeatures(),
        "klotski(q)": PipelineFeatures(quantize=True),
    }[variant]


@cell_function("ablation")
def run_ablation_cell(params: dict) -> dict:
    """Table 3: one rung of the mechanism-ablation ladder.

    Args:
        params: scenario params plus ``variant`` (an
            :data:`ABLATION_VARIANTS` entry; ``simple pipeline`` runs at
            n = 1 via a spec override).

    Returns:
        The rung's throughput.
    """
    scenario = _cell_scenario(params)
    system = KlotskiSystem(
        KlotskiOptions(features=_ablation_features(params["variant"])),
        name=params["variant"],
    )
    return {"throughput": system.run(scenario).metrics.throughput}


def _prefill_usage(result) -> list[int]:
    """VRAM usage sampled at each GPU op start during the prefill."""
    timeline = result.timeline
    prefill_end = timeline.end_of(result.build.step_last_op[0])
    samples = []
    for e in timeline.ops_on(GPU):
        if e.start > prefill_end:
            break
        samples.append(timeline.memory_at("vram", e.start))
    return samples


@cell_function("memory")
def run_memory_cell(params: dict) -> dict:
    """Figure 12: GPU memory over the prefill for one placement mode.

    Args:
        params: scenario params plus ``mode`` (``complete`` streams all
            weights; ``further`` spends spare VRAM on residency).

    Returns:
        Per-GPU-op VRAM samples plus the model/limit reference sizes.
    """
    scenario = _cell_scenario(params)
    use_spare = params["mode"] == "further"
    system = KlotskiSystem(
        KlotskiOptions(use_spare_vram=use_spare),
        name="further-use" if use_spare else "complete-offload",
    )
    result = system.run(scenario)
    samples = _prefill_usage(result)
    hw = ENVIRONMENTS[params["env"]]
    return {
        "samples_bytes": samples,
        "peak_bytes": max(samples),
        "original_bytes": MODELS[params["model"]].total_bytes(),
        "vram_bytes": hw.vram_bytes,
        "usable_vram_bytes": hw.usable_vram(),
    }


def _single_sequence_stats(scenario: Scenario):
    """Drive the Figure 13 prefetcher with one token in flight per step."""
    prefetcher = ExpertPrefetcher(
        scenario.model.num_layers,
        scenario.model.num_experts,
        top_k=scenario.model.top_k,
    )
    warm_up_prefetcher(scenario, prefetcher)
    router = scenario.make_oracle().router
    rng = np.random.default_rng(11)
    for _ in range(16):
        prefetcher.begin_step()
        prev = None
        for layer in range(scenario.model.num_layers):
            predicted = prefetcher.predict(layer)
            pool = router.sample_pool(layer, rng)
            a = router.sample_layer(layer, prev, 1, rng, pool)
            prefetcher.observe(layer, a, predicted)
            prev = a[:, 0]
    return prefetcher.stats


@cell_function("prefetch")
def run_prefetch_cell(params: dict) -> dict:
    """Figure 13: correlation-aware prefetcher accuracy.

    Args:
        params: scenario params plus ``mode`` — ``multi`` runs the real
            multi-batch Klotski pipeline, ``single`` drives the same
            prefetcher with a single sequence (the paper's contrast).

    Returns:
        Per-layer hot accuracy and participation plus their means.
    """
    scenario = _cell_scenario(params)
    if params["mode"] == "single":
        stats = _single_sequence_stats(scenario)
    else:
        stats = KlotskiSystem().run(scenario).prefetcher.stats
    hot = stats.hot_accuracy()
    part = stats.participation_rate()
    return {
        "hot": [float(v) for v in hot],
        "participation": [float(v) for v in part],
        "hot_mean": float(hot.mean()),
        "participation_mean": float(part.mean()),
    }


@cell_function("pipeline_compare")
def run_pipeline_compare_cell(params: dict) -> dict:
    """Figure 15: one decode-step window of a pipeline variant.

    Args:
        params: scenario params plus ``variant`` (``simple`` = sequential
            single-batch overlap; ``klotski`` = the full pipeline).

    Returns:
        The step-2 window length, bubble fractions, and an ASCII Gantt
        rendering of the window.
    """
    scenario = _cell_scenario(params)
    if params["variant"] == "simple":
        system = KlotskiSystem(
            KlotskiOptions(
                features=PipelineFeatures.simple_pipeline(), warmup_steps=0
            ),
            name="simple-overlap",
        )
        system.sequential = True  # one batch at a time
    else:
        system = KlotskiSystem()
    result = system.run(scenario)
    timeline = result.timeline
    start = timeline.end_of(result.build.step_last_op[1])
    end = timeline.end_of(result.build.step_last_op[2])
    bubbles = analyze_bubbles(timeline)
    return {
        "step_ms": (end - start) * 1e3,
        "batches_per_step": 1 if params["variant"] == "simple" else params["n"],
        "bubble_fraction": bubbles.bubble_fraction,
        "inter_layer_fraction": bubbles.inter_layer / max(bubbles.total_time, 1e-9),
        "timeline": render_timeline(
            timeline, start=start, end=end,
            resources=(GPU, H2D, H2D_OD, D2H), width=96,
        ),
    }


def sample_trace(model, tokens: int = 2048, steps: int = 4, seed: int = 2) -> ExpertTrace:
    """Sample an expert-routing trace from the synthetic router (Fig. 5).

    Args:
        model: a :class:`~repro.model.config.ModelConfig`.
        tokens: tokens per sampled step.
        steps: number of steps.
        seed: RNG seed shared by the router and the sampler.

    Returns:
        The accumulated :class:`~repro.routing.trace.ExpertTrace`.
    """
    router = SyntheticRouter(
        RoutingModelConfig(
            num_layers=model.num_layers,
            num_experts=model.num_experts,
            top_k=model.top_k,
            seed=seed,
        )
    )
    trace = ExpertTrace(model.num_experts)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        step = StepTrace()
        for a in router.sample_step(tokens, rng):
            step.append(a)
        trace.append(step)
    return trace


def ascii_heatmap(popularity: np.ndarray, name: str) -> str:
    """ASCII expert-popularity heatmap (rows = experts, cols = layers).

    Args:
        popularity: (layers, experts) popularity matrix.
        name: title suffix.

    Returns:
        The rendered multi-line string.
    """
    shades = " .:-=+*#%@"
    peak = popularity.max() + 1e-12
    lines = [f"Expert popularity — {name} (rows = experts, cols = layers)"]
    for expert in range(popularity.shape[1]):
        cells = "".join(
            shades[min(int(v / peak * 9), 9)] for v in popularity[:, expert]
        )
        lines.append(f"e{expert:<3}|{cells}|")
    return "\n".join(lines)


@cell_function("popularity")
def run_popularity_cell(params: dict) -> dict:
    """Figure 5: expert-popularity statistics for one source.

    Args:
        params: ``source`` — a model preset name (synthetic routing
            trace) or ``real-mini`` (the scaled numpy Mixtral with actual
            gating); plus tokens/steps/seed for the trace sources.

    Returns:
        The popularity matrix, mean top-K coverage, and the number of
        distinct per-layer hottest experts.
    """
    source = params["source"]
    if source == "real-mini":
        cfg = MIXTRAL_8X7B.scaled(1 / 64, name="mixtral-mini")
        model = MoETransformer(cfg, seed=0, router_skew=1.2)
        prompts = synthetic_corpus(4, 12, cfg.vocab_size, seed=1)
        result = model.generate(prompts, 4)
        trace, num_experts, top_k = result.trace, cfg.num_experts, 2
    else:
        cfg = MODELS[source]
        trace = sample_trace(
            cfg, tokens=params["tokens"], steps=params["steps"], seed=params["seed"]
        )
        num_experts, top_k = cfg.num_experts, max(2, cfg.top_k)
    popularity = trace.popularity()[:, :num_experts]
    return {
        "popularity": popularity.tolist(),
        "topk_coverage_mean": float(trace.topk_coverage(top_k).mean()),
        "distinct_hot": len(set(popularity.argmax(axis=1).tolist())),
    }


@cell_function("optimize")
def run_optimize_cell(params: dict) -> dict:
    """Pass-pipeline deltas for one (scenario, batch size) grid point.

    Builds the system's schedule, runs the default optimizer pass queue
    through the :mod:`repro.validation.pass_differential` harness, and
    reports what the accepted passes bought (see
    ``docs/performance.md``'s pass-pipeline section).

    Args:
        params: scenario params plus ``system``.

    Returns:
        Baseline vs optimized makespan and bubble fraction, per-pass
        accept/reject provenance, and any contract violations (always
        empty unless a pass is broken).
    """
    from repro.errors import OutOfMemoryError
    from repro.validation.pass_differential import run_pass_differential

    scenario = _cell_scenario(params)
    system = build_system(params["system"])
    try:
        schedule = system.build(scenario).schedule
        diff = run_pass_differential(schedule, scenario.hardware)
    except OutOfMemoryError as exc:
        return {"oom": True, "oom_reason": str(exc)}
    payload = diff.to_dict()
    result = diff.pipeline
    return {
        "oom": False,
        "baseline_makespan_s": result.baseline_makespan,
        "optimized_makespan_s": result.makespan,
        "baseline_bubble_fraction": result.baseline_bubble_fraction,
        "optimized_bubble_fraction": payload["optimized"]["bubble_fraction"],
        "accepted": list(result.accepted),
        "passes": payload["passes"],
        "violations": payload["violations"],
    }


@cell_function("serving")
def run_serving_cell(params: dict) -> dict:
    """Serving scenarios: one dispatch discipline over a mixed-tenant stream.

    The same Poisson stream (interactive/standard/batch tenants cycled
    deterministically by request id) is replayed under the scheduler
    named in ``params``, so the group-vs-continuous rows of the report
    differ only in dispatch discipline.

    Args:
        params: model/env/prompt_len/gen_len/seed plus replicas,
            group_batches, slo_s, requests, rate_per_s, and ``scheduler``.

    Returns:
        Fleet-level throughput/latency/TTFT plus per-SLO-class
        percentiles from :meth:`ClusterReport.slo_class_metrics`.
    """
    import dataclasses

    from repro.api import RunConfig
    from repro.api.run import build_requests, run_cluster

    config = RunConfig.from_dict({
        "scenario": {
            "model": params["model"], "env": params["env"],
            "prompt_len": params["prompt_len"], "gen_len": params["gen_len"],
            "seed": params["seed"],
        },
        "system": {"name": "klotski", "options": {}},
        "cluster": {
            "replicas": params["replicas"],
            "group_batches": params["group_batches"],
            "max_wait_s": params["max_wait_s"],
            "slo_s": params["slo_s"],
            "scheduler": params["scheduler"],
        },
        "serve": {
            "arrival": "poisson",
            "requests": params["requests"],
            "rate_per_s": params["rate_per_s"],
        },
    })
    classes = ("interactive", "standard", "batch")
    requests = [
        dataclasses.replace(r, slo_class=classes[r.request_id % len(classes)])
        for r in build_requests(config)
    ]
    report = run_cluster(config, shared_cache={}, requests=requests)
    return {
        "scheduler": params["scheduler"],
        "makespan_s": report.makespan_s,
        "throughput_tok_s": report.throughput,
        "goodput_tok_s": report.goodput,
        "mean_ttft_s": report.mean_ttft_s,
        "p95_ttft_s": report.percentile_ttft(95.0),
        "p50_latency_s": report.percentile_latency(50.0),
        "p99_latency_s": report.percentile_latency(99.0),
        "classes": report.slo_class_metrics(),
    }


# ---------------------------------------------------------------------------
# Folds: cell results -> the grid/dict shapes the benches and report use.


def fold_e2e(run: ExperimentRun) -> tuple[dict, dict]:
    """Fold end-to-end cells into (throughput, latency) ResultGrids.

    Args:
        run: a ``fig10``/``fig11`` experiment run.

    Returns:
        Two dicts keyed by scenario key: throughput grids and latency
        grids (OOM cells marked on both).
    """
    throughput: dict[str, ResultGrid] = {}
    latency: dict[str, ResultGrid] = {}
    for r in run.results:
        p = r.cell.params
        key = p["scenario"]
        tp = throughput.setdefault(
            key, ResultGrid(f"Throughput (tok/s) — {key}", "batch size")
        )
        lat = latency.setdefault(
            key, ResultGrid(f"Latency (s) — {key}", "batch size")
        )
        if r.result["oom"]:
            tp.add_oom(p["system"], p["batch_size"])
            lat.add_oom(p["system"], p["batch_size"])
        else:
            tp.add(p["system"], p["batch_size"], r.result["throughput"])
            lat.add(p["system"], p["batch_size"], r.result["latency_s"])
    return throughput, latency


def fold_fig14(run: ExperimentRun) -> dict:
    """Fold the n-sweep into one ResultGrid per scenario key.

    Args:
        run: a ``fig14`` experiment run.

    Returns:
        ``{scenario key: ResultGrid}`` with one ``bs=<b>`` row per batch
        size, x = n.
    """
    grids: dict[str, ResultGrid] = {}
    for r in run.results:
        p = r.cell.params
        grid = grids.setdefault(
            p["scenario"],
            ResultGrid(f"Throughput (tok/s) vs n — {p['scenario']}", "n"),
        )
        if r.result["oom"]:
            grid.add_oom(f"bs={p['batch_size']}", p["n"])
        else:
            grid.add(f"bs={p['batch_size']}", p["n"], r.result["throughput"])
    return grids


def fold_by_axes(run: ExperimentRun, outer: str, inner: str) -> dict:
    """Fold any two-axis run into ``{outer value: {inner value: result}}``.

    Args:
        run: the experiment run.
        outer: outer axis parameter name.
        inner: inner axis parameter name.

    Returns:
        The nested result-dict mapping.
    """
    out: dict = {}
    for r in run.results:
        p = r.cell.params
        out.setdefault(p[outer], {})[p[inner]] = r.result
    return out


def fold_by_axis(run: ExperimentRun, axis: str) -> dict:
    """Fold a one-axis run into ``{axis value: result}``.

    Args:
        run: the experiment run.
        axis: the axis parameter name.

    Returns:
        The result-dict mapping.
    """
    return {r.cell.params[axis]: r.result for r in run.results}


# ---------------------------------------------------------------------------
# Spec factories.


def _e2e_spec(name: str, title: str, full: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        title=title,
        runner="e2e",
        axes=(
            ("scenario", tuple(s.key for s in EVAL_SCENARIOS)),
            ("batch_size", tuple(eval_batch_sizes(full))),
            ("system", E2E_SYSTEMS),
        ),
        base={"prompt_len": PROMPT_LEN, "gen_len": eval_gen_len(full), "seed": SEED},
        overrides=_scenario_overrides_with_n(full),
    )


def _fig5_spec(full: bool) -> ExperimentSpec:
    del full  # Figure 5 has a single operating point
    return ExperimentSpec(
        name="fig5",
        title="Figure 5 — Expert popularity: hot experts exist",
        runner="popularity",
        axes=(
            ("source", ("mixtral-8x7b", "switch-base-8", "switch-base-16", "real-mini")),
        ),
        base={"tokens": 2048, "steps": 4, "seed": 2},
    )


def _fig12_spec(full: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig12",
        title="Figure 12 — GPU memory usage over the prefill",
        runner="memory",
        axes=(
            ("scenario", ("8x7b-env1", "8x22b-env2")),
            ("mode", ("complete", "further")),
        ),
        base={
            "batch_size": 16,
            "prompt_len": PROMPT_LEN,
            "gen_len": 2,
            "seed": SEED,
        },
        overrides=_scenario_overrides_with_n(full),
    )


def _fig13_spec(full: bool) -> ExperimentSpec:
    s = SCENARIO_BY_KEY["8x7b-env1"]
    return ExperimentSpec(
        name="fig13",
        title="Figure 13 — Correlation-aware prefetch accuracy",
        runner="prefetch",
        axes=(("mode", ("multi", "single")),),
        base={
            "model": s.model_name,
            "env": s.env_name,
            "n": s.n(full),
            "batch_size": 16,
            "prompt_len": PROMPT_LEN,
            "gen_len": eval_gen_len(full),
            "seed": SEED,
        },
    )


def _fig14_spec(full: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="fig14",
        title="Figure 14 — Impact of batch-group size n and batch size",
        runner="e2e",
        axes=(
            ("scenario", ("8x7b-env1", "8x22b-env2")),
            ("batch_size", tuple(eval_batch_sizes(full))),
            ("n", tuple(fig14_n_values(full))),
        ),
        base={
            "system": "klotski",
            "prompt_len": PROMPT_LEN,
            "gen_len": eval_gen_len(full),
            "seed": SEED,
        },
        overrides=_SCENARIO_OVERRIDES,
    )


def _fig15_spec(full: bool) -> ExperimentSpec:
    del full  # Figure 15 is a fixed per-block comparison
    s = SCENARIO_BY_KEY["8x7b-env1"]
    return ExperimentSpec(
        name="fig15",
        title="Figure 15 — Pipeline bubbles: simple overlap vs Klotski",
        runner="pipeline_compare",
        axes=(("variant", ("simple", "klotski")),),
        base={
            "model": s.model_name,
            "env": s.env_name,
            "batch_size": 64,
            "n": 10,
            "prompt_len": PROMPT_LEN,
            "gen_len": 4,
            "seed": SEED,
        },
    )


TABLE1_MODELS = ("opt-1.3b", "opt-6.7b", "switch-base-16", "switch-base-128")


def _table1_spec(full: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="table1",
        title="Table 1 — The overlap strategy helps dense models more than MoE",
        runner="table1",
        axes=(
            ("model", TABLE1_MODELS),
            ("variant", ("original", "strategy")),
        ),
        base={
            "env": "env1",
            "batch_size": 4,
            "n": 6,
            "prompt_len": PROMPT_LEN,
            "gen_len": eval_gen_len(full),
            "seed": SEED,
        },
    )


def _table2_spec(full: bool) -> ExperimentSpec:
    del full  # hardware facts do not scale
    return ExperimentSpec(
        name="table2",
        title="Table 2 — The two hardware environments",
        runner="table2",
        axes=(("env", ("env1", "env2")),),
    )


def _table3_spec(full: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="table3",
        title="Table 3 — Ablation of Klotski's mechanisms",
        runner="ablation",
        axes=(
            ("scenario", tuple(s.key for s in EVAL_SCENARIOS)),
            ("variant", ABLATION_VARIANTS),
        ),
        base={
            "batch_size": 16,
            "prompt_len": PROMPT_LEN,
            "gen_len": eval_gen_len(full),
            "seed": SEED,
        },
        overrides=_scenario_overrides_with_n(full)
        + (({"variant": "simple pipeline"}, {"n": 1}),),
    )


def _optimize_spec(full: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="optimize",
        title="Schedule-optimization passes — verified bubble/makespan deltas",
        runner="optimize",
        axes=(
            ("scenario", tuple(s.key for s in EVAL_SCENARIOS)),
            ("batch_size", tuple(eval_batch_sizes(full))),
        ),
        base={
            "system": "klotski",
            "prompt_len": PROMPT_LEN,
            "gen_len": eval_gen_len(full),
            "seed": SEED,
        },
        overrides=_scenario_overrides_with_n(full),
    )


def _serving_spec(full: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="serving",
        title="Serving scenarios — group vs continuous batching",
        runner="serving",
        axes=(("scheduler", ("group", "continuous")),),
        base={
            "model": "mixtral-8x7b",
            "env": "env1",
            "prompt_len": 64,
            "gen_len": 8 if not full else 16,
            "seed": SEED,
            "replicas": 3,
            "group_batches": 4,
            "max_wait_s": 2.0,
            "slo_s": 60.0,
            "requests": 48 if not full else 192,
            "rate_per_s": 2.0,
        },
    )


# ---------------------------------------------------------------------------
# Markdown renderers (sections of docs/results.md).


def render_fig5(run: ExperimentRun) -> str:
    """Figure 5 section: heatmaps plus coverage callouts."""
    by_source = fold_by_axis(run, "source")
    parts = []
    for source, result in by_source.items():
        if source == "real-mini":
            continue
        heat = ascii_heatmap(np.array(result["popularity"]), source)
        parts.append(f"```\n{heat}\n```")
    bullets = [
        f"- `{source}`: mean top-K coverage **{result['topk_coverage_mean']:.1%}**, "
        f"{result['distinct_hot']} distinct per-layer hottest experts"
        for source, result in by_source.items()
        if source != "real-mini"
    ]
    real = by_source["real-mini"]
    bullets.append(
        "- scaled numpy Mixtral (actual gating): mean top-2 coverage "
        f"**{real['topk_coverage_mean']:.1%}** — the synthetic skew matches the "
        "real router (paper: 53.7 % at one Mixtral layer)"
    )
    return "\n\n".join(parts) + "\n\n" + "\n".join(bullets)


def render_fig10(run: ExperimentRun) -> str:
    """Figure 10 section: per-scenario grids plus speedup callouts."""
    throughput, _ = fold_e2e(run)
    parts = []
    for key, grid in throughput.items():
        parts.append(f"**{grid.title}**\n\n{grid.to_markdown()}")
    callouts = []
    for baseline in E2E_SYSTEMS[2:]:
        best = max(
            (g.speedup("klotski", baseline) for g in throughput.values()),
            key=lambda v: v if v == v else -1.0,
        )
        if best == best:
            callouts.append(f"- Klotski vs `{baseline}`: up to **{best:.2f}x**")
    parts.append(
        "Speedups (max over scenarios and batch sizes; OOM cells are "
        "excluded — the expert-only offloaders cannot run large batches on "
        "Mixtral-8x22B/Env1, §9.2):\n\n" + "\n".join(callouts)
    )
    return "\n\n".join(parts)


def render_fig11(run: ExperimentRun) -> str:
    """Figure 11 section: throughput-latency trade-off curves."""
    throughput, latency = fold_e2e(run)
    parts = []
    for key in throughput:
        tp, lat = throughput[key], latency[key]
        lines = [f"Throughput-latency trade-off — {key}"]
        lines.append(f"{'system':<20} (tok/s, s) per batch size")
        for system in tp.systems():
            points = [
                (tp.get(system, x), lat.get(system, x))
                for x in tp.x_values
                if tp.get(system, x) == tp.get(system, x)
            ]
            cells = "  ".join(f"({t:7.2f},{l:7.0f})" for t, l in points)
            lines.append(f"{system:<20} {cells}")
        parts.append("```\n" + "\n".join(lines) + "\n```")
    parts.append(
        "Klotski's curve sits toward the lower right: more throughput at "
        "equal or lower latency; quantization improves the curve even where "
        "it does not raise peak throughput."
    )
    return "\n\n".join(parts)


def render_fig12(run: ExperimentRun) -> str:
    """Figure 12 section: memory curves and reduction callouts."""
    by_key = fold_by_axes(run, "scenario", "mode")
    parts = []
    bullets = []
    for key, modes in by_key.items():
        any_mode = next(iter(modes.values()))
        original = any_mode["original_bytes"]
        lines = [f"GPU memory over prefill — {key}"]
        lines.append(
            f"  original requirement (all weights): {original / GiB:7.1f} GiB"
        )
        lines.append(
            f"  GPU memory limit:                   "
            f"{any_mode['vram_bytes'] / GiB:7.1f} GiB"
        )
        for mode, result in modes.items():
            samples = result["samples_bytes"]
            peak = result["peak_bytes"]
            step = max(1, len(samples) // 8)
            curve = " ".join(f"{s / GiB:5.1f}" for s in samples[::step][:8])
            lines.append(
                f"  {mode:<18} peak {peak / GiB:6.1f} GiB "
                f"({1 - peak / original:6.1%} below original) | {curve} ..."
            )
        parts.append("```\n" + "\n".join(lines) + "\n```")
        reduction = 1 - modes["complete"]["peak_bytes"] / original
        bullets.append(
            f"- `{key}`: complete offloading peaks **{reduction:.1%}** below the "
            "original requirement (paper: >= 94.1 % on Mixtral-8x22B/H800)"
        )
    return "\n\n".join(parts) + "\n\n" + "\n".join(bullets)


def render_fig13(run: ExperimentRun) -> str:
    """Figure 13 section: per-layer accuracy table + single-seq contrast."""
    by_mode = fold_by_axis(run, "mode")
    multi, single = by_mode["multi"], by_mode["single"]
    lines = ["| layer | really hot | participate |", "|---|---|---|"]
    for layer, (h, p) in enumerate(zip(multi["hot"], multi["participation"])):
        lines.append(f"| {layer} | {h:.2f} | {p:.2f} |")
    lines.append(
        f"| **mean** | **{multi['hot_mean']:.2f}** | "
        f"**{multi['participation_mean']:.2f}** |"
    )
    note = (
        f"Multi-batch participation averages "
        f"**{multi['participation_mean']:.1%}** (paper: 100 %); a "
        f"single-sequence prefetcher reaches only "
        f"**{single['participation_mean']:.1%}** (paper: 42.24 %), which is "
        "why aggregating routing across the batch group matters."
    )
    return "\n".join(lines) + "\n\n" + note


def render_fig14(run: ExperimentRun) -> str:
    """Figure 14 section: n-sweep grids plus an ASCII curve."""
    grids = fold_fig14(run)
    parts = []
    for key, grid in grids.items():
        parts.append(f"**{grid.title}**\n\n{grid.to_markdown()}")
        largest = grid.systems()[-1]
        curve = {
            f"n={x}": grid.get(largest, x)
            for x in grid.x_values
            if grid.get(largest, x) == grid.get(largest, x)
        }
        parts.append(
            f"Throughput vs n at {largest} ({key}):\n\n```\n"
            + bar_chart(curve, unit=" tok/s")
            + "\n```"
        )
    parts.append(
        "Throughput rises steeply while pipeline bubbles are being filled, "
        "larger batch sizes rise faster, and the curve flattens once the "
        "pipeline is near bubble-free (§9.7)."
    )
    return "\n\n".join(parts)


def render_fig15(run: ExperimentRun) -> str:
    """Figure 15 section: step windows, bubbles, and Gantt timelines."""
    by_variant = fold_by_axis(run, "variant")
    simple, klotski = by_variant["simple"], by_variant["klotski"]
    n = klotski["batches_per_step"]
    ratio = simple["step_ms"] * n / klotski["step_ms"]
    parts = [
        "| pipeline | one decode step | batches per step | GPU bubble share |",
        "|---|---|---|---|",
        f"| simple overlap | {simple['step_ms']:.0f} ms | 1 | "
        f"{simple['bubble_fraction']:.1%} |",
        f"| klotski | {klotski['step_ms']:.0f} ms | {n} | "
        f"{klotski['bubble_fraction']:.1%} |",
    ]
    table = "\n".join(parts)
    timelines = "\n\n".join(
        f"`{name}` (one decode step):\n\n```\n{by_variant[v]['timeline']}\n"
        "legend: a=attention g=gate e=expert t=transfer k=KV\n```"
        for name, v in (("simple-overlap", "simple"), ("klotski", "klotski"))
    )
    note = (
        f"For the identical workload ({n} batches), simple overlap needs "
        f"**{ratio:.1f}x** the time of Klotski (paper: ~2367 ms vs ~215 ms, "
        f"~11x); Klotski's inter-layer bubbles are down to "
        f"**{klotski['inter_layer_fraction']:.1%}** of wall time."
    )
    return table + "\n\n" + timelines + "\n\n" + note


def render_table1(run: ExperimentRun) -> str:
    """Table 1 section: original vs +strategy throughput per model."""
    by_model = fold_by_axes(run, "model", "variant")
    lines = [
        "| model | original (tok/s) | +strategy (tok/s) | improvement | "
        "strategy GPU util |",
        "|---|---|---|---|---|",
    ]
    for model, variants in by_model.items():
        orig, strat = variants["original"], variants["strategy"]
        lines.append(
            f"| {model} | {orig['throughput']:.2f} | {strat['throughput']:.2f} | "
            f"{(strat['throughput'] / orig['throughput'] - 1) * 100:.1f}% | "
            f"{strat['gpu_utilization']:.0%} |"
        )
    note = (
        "Dense models gain more from the dense-model overlap strategy than "
        "MoE models (§3.1): the dense FFN's I/O is covered by compute, while "
        "many-expert I/O cannot be."
    )
    return "\n".join(lines) + "\n\n" + note


def render_table2(run: ExperimentRun) -> str:
    """Table 2 section: the environment facts."""
    by_env = fold_by_axis(run, "env")
    env1, env2 = by_env["env1"], by_env["env2"]
    lines = [
        "| | Environment 1 | Environment 2 |",
        "|---|---|---|",
        f"| GPU | {env1['gpu']} {env1['vram_gib']} GB | "
        f"{env2['gpu']} {env2['vram_gib']} GB |",
        f"| CPU DRAM | {env1['dram_gib']} GB | {env2['dram_gib']} GB |",
        f"| Disk read | {env1['disk_gbps']:.0f} GB/s | {env2['disk_gbps']:.0f} GB/s |",
        f"| PCIe H2D | {env1['pcie_gbps']:.0f} GB/s eff. | "
        f"{env2['pcie_gbps']:.0f} GB/s eff. |",
    ]
    return "\n".join(lines)


def render_table3(run: ExperimentRun) -> str:
    """Table 3 section: the mechanism-ablation ladder."""
    ladders = fold_by_axes(run, "scenario", "variant")
    keys = list(ladders)
    lines = ["| variant | " + " | ".join(keys) + " |", "|---" * (len(keys) + 1) + "|"]
    for variant in ABLATION_VARIANTS:
        cells = " | ".join(f"{ladders[k][variant]['throughput']:.3f}" for k in keys)
        lines.append(f"| {variant} | {cells} |")
    note = (
        "Multi-batching is by far the largest step; hot-expert prefetch and "
        "order adjustment add smaller gains, and quantization barely moves "
        "peak throughput (§9.5)."
    )
    return "\n".join(lines) + "\n\n" + note


def render_serving(run: ExperimentRun) -> str:
    """Serving-scenarios section: fleet headline plus per-class tails."""
    by_scheduler = fold_by_axis(run, "scheduler")
    lines = [
        "| scheduler | throughput (tok/s) | TTFT mean / p95 (s) "
        "| latency p50 / p99 (s) |",
        "| --- | --- | --- | --- |",
    ]
    for name in ("group", "continuous"):
        r = by_scheduler[name]
        lines.append(
            f"| {name} | {r['throughput_tok_s']:.2f} "
            f"| {r['mean_ttft_s']:.2f} / {r['p95_ttft_s']:.2f} "
            f"| {r['p50_latency_s']:.2f} / {r['p99_latency_s']:.2f} |"
        )
    lines.append("")
    lines.append(
        "Per-SLO-class tails (interactive / standard / batch tenants "
        "cycled over one Poisson stream):"
    )
    lines.append("")
    lines.append("| class | scheduler | TTFT p95 (s) | latency p99 (s) |")
    lines.append("| --- | --- | --- | --- |")
    for cls in ("interactive", "standard", "batch"):
        for name in ("group", "continuous"):
            c = by_scheduler[name]["classes"].get(cls)
            if c is None:
                continue
            lines.append(
                f"| {cls} | {name} | {c['p95_ttft_s']:.2f} "
                f"| {c['p99_latency_s']:.2f} |"
            )
    return "\n".join(lines)


def render_optimize(run: ExperimentRun) -> str:
    """Optimize section: per-cell pass-pipeline deltas plus the best win."""
    by_scenario = fold_by_axes(run, "scenario", "batch_size")
    lines = [
        "| scenario | batch | makespan (s) | bubble fraction | accepted passes |",
        "| --- | --- | --- | --- | --- |",
    ]
    best = None  # (bubble-fraction reduction, scenario, batch, result)
    violations: list[str] = []
    for scenario, by_bs in by_scenario.items():
        for bs, r in sorted(by_bs.items()):
            if r["oom"]:
                lines.append(f"| {scenario} | {bs} | OOM | — | — |")
                continue
            violations.extend(r["violations"])
            delta = r["baseline_bubble_fraction"] - r["optimized_bubble_fraction"]
            if best is None or delta > best[0]:
                best = (delta, scenario, bs, r)
            accepted = ", ".join(r["accepted"]) or "none"
            lines.append(
                f"| {scenario} | {bs} "
                f"| {r['baseline_makespan_s']:.4f} -> "
                f"{r['optimized_makespan_s']:.4f} "
                f"| {r['baseline_bubble_fraction']:.1%} -> "
                f"{r['optimized_bubble_fraction']:.1%} "
                f"| {accepted} |"
            )
    notes = []
    if best is not None and best[0] > 0:
        _, scenario, bs, r = best
        notes.append(
            f"Largest bubble-fraction reduction: {scenario} at batch size "
            f"{bs}, {r['baseline_bubble_fraction']:.2%} -> "
            f"{r['optimized_bubble_fraction']:.2%} "
            f"(makespan {r['baseline_makespan_s']:.4f} s -> "
            f"{r['optimized_makespan_s']:.4f} s)."
        )
    notes.append(
        "Every cell ran through the pass-differential harness: "
        f"{len(violations)} contract violations."
        if violations
        else "Every cell ran through the pass-differential harness with "
             "zero contract violations (op-multiset conservation, clean "
             "timeline invariants, makespan monotonicity)."
    )
    return "\n".join(lines) + "\n\n" + " ".join(notes)


# ---------------------------------------------------------------------------
# Registrations (report order).

register_experiment(Experiment(
    name="fig5",
    title="Figure 5 — Expert popularity heatmaps",
    caption="A few experts take most tokens, top-K coverage is high, and "
            "the hot set varies per layer (§3.2).",
    make_spec=_fig5_spec,
    render=render_fig5,
))
register_experiment(Experiment(
    name="fig10",
    title="Figure 10 — End-to-end throughput",
    caption="Klotski vs the five baselines across the three evaluation "
            "scenarios and the batch-size sweep (§9.2).",
    make_spec=lambda full: _e2e_spec(
        "fig10", "Figure 10 — End-to-end throughput", full
    ),
    render=render_fig10,
))
register_experiment(Experiment(
    name="fig11",
    title="Figure 11 — Throughput-latency trade-off",
    caption="The (throughput, latency) points across batch sizes form each "
            "system's trade-off curve (§9.3). Shares the Figure 10 grid "
            "cell-for-cell via the artifact store.",
    make_spec=lambda full: _e2e_spec(
        "fig11", "Figure 11 — Throughput-latency trade-off", full
    ),
    render=render_fig11,
))
register_experiment(Experiment(
    name="fig12",
    title="Figure 12 — GPU memory usage",
    caption="GPU memory over the prefill for complete offloading vs "
            "spending spare VRAM on residency (§9.4).",
    make_spec=_fig12_spec,
    render=render_fig12,
))
register_experiment(Experiment(
    name="fig13",
    title="Figure 13 — Prefetch accuracy",
    caption="Per-layer accuracy of the correlation-aware expert prefetcher, "
            "vs a single-sequence prefetcher (§9.6).",
    make_spec=_fig13_spec,
    render=render_fig13,
))
register_experiment(Experiment(
    name="fig14",
    title="Figure 14 — Batch-group size sweep",
    caption="Throughput vs n for several batch sizes (§9.7).",
    make_spec=_fig14_spec,
    render=render_fig14,
))
register_experiment(Experiment(
    name="fig15",
    title="Figure 15 — Pipeline comparison",
    caption="Actual pipelines at batch size 64, n = 10: simple overlap vs "
            "Klotski on the identical workload (§9.8).",
    make_spec=_fig15_spec,
    render=render_fig15,
))
register_experiment(Experiment(
    name="table1",
    title="Table 1 — Dense vs MoE under the overlap strategy",
    caption="The multi-batch I/O-overlap strategy applied to small dense "
            "and MoE models with offloading active (§3.1).",
    make_spec=_table1_spec,
    render=render_table1,
))
register_experiment(Experiment(
    name="table2",
    title="Table 2 — Hardware environments",
    caption="The two evaluation environments, as encoded in the hardware "
            "specs (§9.1).",
    make_spec=_table2_spec,
    render=render_table2,
))
register_experiment(Experiment(
    name="serving",
    title="Serving scenarios — group vs continuous batching",
    caption="The same mixed-tenant request stream dispatched by the "
            "group scheduler and the iteration-level continuous scheduler "
            "(docs/architecture.md, 'Dispatch disciplines'); continuous "
            "admission trades whole-group batching for per-step admission "
            "and KV-pressure preemption.",
    make_spec=_serving_spec,
    render=render_serving,
))
register_experiment(Experiment(
    name="optimize",
    title="Schedule-optimization passes — verified deltas",
    caption="The default optimizer pass queue (coalesce-transfers, "
            "retime-prefetch, fill-bubbles) applied to Klotski's schedule "
            "on the Figure 10 grid; every accepted rewrite is re-proved by "
            "the pass-differential harness (docs/performance.md, "
            "'Pass pipeline').",
    make_spec=_optimize_spec,
    render=render_optimize,
))
register_experiment(Experiment(
    name="table3",
    title="Table 3 — Mechanism ablation",
    caption="simple pipeline -> + multi batches -> + only prefetch hot -> "
            "+ adjust order (Klotski) -> + quantization (§9.5).",
    make_spec=_table3_spec,
    render=render_table3,
))
