"""Command-line interface for the Klotski reproduction.

Subcommands mirror how the paper's system is operated:

* ``plan``       — offline constraint-sensitive planning of ``n`` (§7)
* ``calibrate``  — measure and cache per-layer timings (§7 stage 1)
* ``run``        — execute Klotski on a workload, print metrics
* ``compare``    — run Klotski and the baselines on one scenario (Fig. 10)
* ``sweep-n``    — throughput vs batch-group size (Fig. 14)
* ``export-trace`` — deprecated alias of ``run --n N --trace PATH``
* ``serve``      — simulate a multi-replica cluster serving a request
  stream behind a pluggable router (``repro.cluster``)
* ``experiments`` — declarative experiment orchestration
  (``repro.experiments``)
* ``bench``      — perf smoke: time one reduced cell per experiment into
  ``BENCH.json`` (best-of-N, milliseconds), so CI tracks the simulator's
  performance trajectory; ``--compare BASELINE.json`` turns it into a
  regression gate
* ``profile``    — run one traced pipeline and print the span tree and
  top-k table of the simulator's *own* wall time (``repro.obs``)
* ``validate``   — correctness harness (``repro.validation``): fuzz
  randomized-but-seeded configs through the legacy and compiled executor
  engines; every failure payload carries the replayable config blob

The flags are a *view over the declarative config schema*
(:mod:`repro.api`): scenario flags are derived from
:class:`~repro.api.ScenarioConfig` fields, presets and systems resolve
through the ``repro.api`` registries, and ``--set key=value`` reaches any
field of the :class:`~repro.api.RunConfig` tree the flat flags do not
cover (dotted paths, JSON values).

``run``, ``serve``, and ``experiments run`` accept ``--trace PATH``:
one Chrome-trace file interleaving the simulator's own spans with the
simulated timeline lanes (see :mod:`repro.obs.export`). ``serve``'s
arrival-replay file moved to ``--arrival-trace``.

JSON output is uniform: every subcommand's ``--json`` emits one envelope
``{"command": <name>, "schema_version": 1, "result": <payload>,
"manifest": <run provenance>}``; the manifest carries the config hash,
seed, package version, wall time, and cache/memo counters
(:mod:`repro.obs.manifest`).
Simulated OOM is a *result*, not an error: ``run`` and ``compare`` both
exit 0 when the simulation completes, reporting OOM in the payload (the
paper's §9.2 observation that expert-only offloaders cannot run large
batches is data, not a crash).

Installed as ``klotski-repro`` (see ``pyproject.toml``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings

from repro import obs
from repro.analysis.bubbles import analyze_bubbles
from repro.analysis.plots import bar_chart
from repro.analysis.reporting import ResultGrid
from repro.api import (
    SCHEMA_VERSION,
    RunConfig,
    add_scenario_flags,
    add_set_flag,
    apply_overrides,
    build_scenario,
    build_system,
    router_names,
    run_cluster,
    scenario_dict_from_args,
    scheduler_names,
    system_names,
)
from repro.api.registry import RegistryError
from repro.cluster.engines import ENGINES
from repro.core.engine import KlotskiEngine, KlotskiSystem
from repro.errors import (
    ConfigValidationError,
    OutOfMemoryError,
    ReproDeprecationWarning,
)
from repro.hardware.calibrate import TimingCache, measure
from repro.obs import build_manifest
from repro.obs.export import save_trace
from repro.passes import DEFAULT_PASS_QUEUE

# perf_counter() at entry to main(); the manifest's wall_s baseline.
_CLI_T0: float | None = None


def emit_json(command: str, result, *, config=None, seed=None) -> None:
    """Print the uniform JSON envelope every subcommand shares.

    Every envelope carries a ``manifest`` block (see
    :mod:`repro.obs.manifest`): config hash, seed, package version, wall
    time, and the process counter/gauge snapshot at emission.
    """
    manifest = build_manifest(command, config=config, seed=seed, started=_CLI_T0)
    print(
        json.dumps(
            {
                "command": command,
                "schema_version": SCHEMA_VERSION,
                "result": result,
                "manifest": manifest.to_dict(),
            },
            indent=2,
        )
    )


def _maybe_enable_trace(args) -> None:
    """Arm the tracer when the subcommand was given ``--trace PATH``."""
    if getattr(args, "trace", None):
        obs.enable()


def _finish_trace(args, *, timeline=None, report=None) -> None:
    """Write the merged Chrome trace when ``--trace PATH`` was given.

    The file interleaves the simulator-self spans recorded since
    :func:`_maybe_enable_trace` with the simulated lanes (pipeline
    ``timeline`` or cluster ``report``), one process group each.
    """
    if not getattr(args, "trace", None):
        return
    path = save_trace(args.trace, timeline=timeline, report=report)
    obs.disable()
    if not getattr(args, "json", False):
        print(f"wrote trace {path} (open in Perfetto or chrome://tracing)")


def _run_config(
    args, *, n: int = 1, system: str = "klotski", options: dict | None = None
) -> RunConfig:
    """The validated RunConfig a scenario-taking subcommand describes.

    ``--set`` is applied last and wins over flags. Single-machine
    commands reject cluster/serve sections instead of silently ignoring
    an override that would have no effect.
    """
    from repro.api import run_config_from_args

    config = run_config_from_args(args, n=n, system=system, system_options=options)
    ignored = [s for s in ("cluster", "serve") if getattr(config, s) is not None]
    if ignored:
        raise ConfigValidationError(
            f"{args.command} config",
            [
                f"{section}: not applicable to '{args.command}' "
                "(only 'serve' runs a cluster)"
                for section in ignored
            ],
        )
    return config


def _scenario(args, num_batches: int = 1):
    """Build the runtime scenario for commands without system choices."""
    return build_scenario(_run_config(args, n=num_batches).scenario)


def _passes_from_arg(value) -> tuple:
    """Parse a ``--passes`` value: None (disabled), ``default``, or a
    comma-separated list of registered pass names."""
    if value is None:
        return ()
    if value in ("", "default"):
        return DEFAULT_PASS_QUEUE
    return tuple(p.strip() for p in value.split(",") if p.strip())


def _with_passes(config: RunConfig, passes: tuple) -> RunConfig:
    """Pin a pass queue onto the config's system section, re-validated
    (unknown pass names get the registry's typo-suggesting report)."""
    if not passes:
        return config
    system = dataclasses.replace(config.system, passes=tuple(passes))
    return dataclasses.replace(config, system=system).validate()


def cmd_plan(args) -> int:
    scenario = _scenario(args)
    engine = KlotskiEngine(scenario)
    plan = engine.plan()
    print(
        f"model={scenario.model.name} env={scenario.hardware.name} "
        f"batch_size={scenario.workload.batch_size}"
    )
    print(f"planned n = {plan.n} (feasible={plan.feasible})")
    print(f"binding constraint: {plan.binding_constraint}")
    for name, margin in plan.margins.items():
        print(f"  {name:<28} {margin * 1e3:+9.2f} ms")
    for note in plan.notes:
        print(f"note: {note}")
    return 0


def cmd_calibrate(args) -> int:
    scenario = _scenario(args)
    model, hw = scenario.model, scenario.hardware
    if args.cache:
        timings = TimingCache(args.cache).get_or_measure(
            model, hw, batch_size=args.batch_size, prompt_len=args.prompt_len
        )
        print(f"cached in {args.cache}")
    else:
        timings = measure(
            model, hw, batch_size=args.batch_size, prompt_len=args.prompt_len
        )
    for field_name, value in vars(timings).items():
        if isinstance(value, float):
            print(f"{field_name:<24} {value * 1e3:10.3f} ms")
        else:
            print(f"{field_name:<24} {value}")
    print(f"{'io/compute ratio':<24} {timings.io_compute_ratio():10.1f}x")
    return 0


def cmd_run(args) -> int:
    config = _run_config(
        args, n=args.n or 1, system="klotski",
        options={"quantize": True} if args.quantize else {},
    )
    config = _with_passes(config, _passes_from_arg(args.passes))
    _maybe_enable_trace(args)
    scenario = build_scenario(config.scenario)
    # --set scenario.n wins over --n (it is applied last); with neither
    # given, scenario.n stays at the tree default of 1 and Klotski runs
    # at the planner's n.
    explicit_n = config.scenario.n if (
        args.n is not None or config.scenario.n != 1
    ) else None
    system = build_system(config.system)
    if isinstance(system, KlotskiSystem):
        # Any registered factory yielding a KlotskiSystem gets the
        # planner path — the engine replans n when none was pinned.
        engine = KlotskiEngine(scenario, system.options)
        # The engine builds its own system instance; carry the config's
        # pass queue over so the planner path optimizes too.
        engine.system.passes = system.passes
        try:
            result = engine.run(n=explicit_n)
        except OutOfMemoryError as exc:
            result = _oom_result(engine.system.name, exc)
    else:
        # No planner for non-Klotski systems: run at the pinned (or
        # default) group size.
        workload = scenario.workload.with_batches(explicit_n or 1)
        result = system.run_safe(scenario.with_workload(workload))
    if result.oom:
        _finish_trace(args)
        payload = {"oom": True, "oom_reason": result.oom_reason}
        if args.json:
            emit_json("run", payload, config=config)
        else:
            print(f"OOM: {result.oom_reason}")
        return 0
    _finish_trace(args, timeline=result.timeline)
    bubbles = analyze_bubbles(result.timeline)
    payload = dataclasses.asdict(result.metrics)
    payload["oom"] = False
    payload["throughput"] = result.metrics.throughput
    payload["gpu_utilization"] = result.metrics.gpu_utilization
    payload["bubble_fraction"] = bubbles.bubble_fraction
    if result.prefetcher is not None:
        stats = result.prefetcher.stats
        payload["prefetch_hot_accuracy"] = float(stats.hot_accuracy().mean())
        payload["prefetch_participation"] = float(
            stats.participation_rate().mean()
        )
    if result.passes is not None:
        payload["passes"] = result.passes.to_dict()
    if args.json:
        emit_json("run", payload, config=config)
        return 0
    print(result.metrics.summary())
    print(bubbles.summary())
    if result.passes is not None:
        for decision in result.passes.decisions:
            print(f"pass {decision.summary()}")
    if result.prefetcher is not None:
        stats = result.prefetcher.stats
        print(
            f"prefetch hot accuracy {stats.hot_accuracy().mean():.1%}, "
            f"participation {stats.participation_rate().mean():.1%}"
        )
    return 0


def _oom_result(system: str, exc: OutOfMemoryError):
    from repro.systems import SystemResult

    return SystemResult(system=system, metrics=None, oom=True, oom_reason=str(exc))


def cmd_optimize(args) -> int:
    """Run the pass pipeline on one scenario; report per-pass deltas."""
    config = _run_config(args, n=args.n or 1, system=args.system)
    config = _with_passes(
        config, _passes_from_arg(args.passes) or DEFAULT_PASS_QUEUE
    )
    scenario = build_scenario(config.scenario)
    system = build_system(config.system)
    result = system.run_safe(scenario)
    if result.oom:
        payload = {"oom": True, "oom_reason": result.oom_reason}
        if args.json:
            emit_json("optimize", payload, config=config)
        else:
            print(f"OOM: {result.oom_reason}")
        return 0
    payload = result.passes.to_dict()
    payload["oom"] = False
    payload["system"] = system.name
    payload["throughput_tok_s"] = result.metrics.throughput
    if args.json:
        emit_json("optimize", payload, config=config)
        return 0
    base, opt = payload["baseline"], payload["optimized"]
    print(
        f"{system.name}: {len(result.passes.decisions)} passes, "
        f"{len(result.passes.accepted)} accepted"
    )
    for decision in result.passes.decisions:
        print(f"  {decision.summary()}")
    print(
        f"makespan        {base['makespan_s']:.4f} s -> "
        f"{opt['makespan_s']:.4f} s"
    )
    print(
        f"bubble fraction {base['bubble_fraction']:7.1%} -> "
        f"{opt['bubble_fraction']:7.1%}"
    )
    return 0


def cmd_compare(args) -> int:
    from repro.api import SystemConfig

    config = _run_config(args, n=args.n or 6)
    scenario = build_scenario(config.scenario)
    # The configured system leads the comparison; the klotski(q) variant
    # rides along only when the system section was left at its default
    # (so --set system.name/options picks exactly what you asked for).
    configs = [config.system]
    if config.system == SystemConfig():
        configs.append(SystemConfig("klotski(q)"))
    configs.extend(
        SystemConfig(name.strip())
        for name in args.systems.split(",")
        if name.strip()
    )
    # Build every system up front: one aggregated unknown-name report
    # before any simulation time is spent.
    errors = []
    systems = []
    for system_config in configs:
        try:
            systems.append(build_system(system_config))
        except ConfigValidationError as exc:
            errors.extend(exc.errors)
        except RegistryError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigValidationError("compare --systems", errors)
    rows = []
    for system in systems:
        result = system.run_safe(scenario)
        rows.append(
            {
                "system": result.system,
                "oom": result.oom,
                "oom_reason": result.oom_reason,
                "throughput_tok_s": result.throughput,
            }
        )
    if args.json:
        # Report the scenario that actually ran (--set overrides
        # included), not the raw flag values: preset names when the
        # config used them, resolved spec names for inline dicts.
        sc = config.scenario
        emit_json(
            "compare",
            {
                "model": sc.model if isinstance(sc.model, str)
                else scenario.model.name,
                "env": sc.env if isinstance(sc.env, str)
                else scenario.hardware.name,
                "batch_size": sc.batch_size,
                "systems": rows,
            },
            config=config,
        )
        return 0
    throughputs = {}
    for row in rows:
        if row["oom"]:
            print(f"{row['system']:<20} OOM")
        else:
            throughputs[row["system"]] = row["throughput_tok_s"]
            print(f"{row['system']:<20} {row['throughput_tok_s']:8.2f} tok/s")
    print()
    print(bar_chart(throughputs, unit=" tok/s"))
    return 0


def _faults_from_args(args):
    """Resolve ``serve --faults/--fault-seed`` into a ``cluster.faults`` value.

    ``--faults`` takes a registered fault-preset name or an inline JSON
    FaultConfig dict. ``--fault-seed`` re-seeds the plan without editing
    the spec, so one preset fans out into many deterministic chaos runs.
    """
    spec = args.faults
    if args.fault_seed is not None and not spec:
        raise SystemExit("--fault-seed requires --faults")
    if not spec:
        return ""
    if spec.lstrip().startswith("{"):
        try:
            value = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--faults is not valid JSON: {exc}") from None
    else:
        value = spec
    if args.fault_seed is not None:
        if isinstance(value, str):
            from repro.api.registry import FAULT_PRESETS

            try:
                value = FAULT_PRESETS.get(value)().to_dict()
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
        value["seed"] = args.fault_seed
    return value


def cmd_serve(args) -> int:
    replay = args.arrival_trace
    faults = _faults_from_args(args)
    tree = {
        "scenario": scenario_dict_from_args(args, n=1),
        "system": {"name": "klotski", "options": {}},
        "cluster": {
            "replicas": args.replicas,
            "envs": args.envs.split(",") if args.envs else [],
            "router": args.router,
            "group_batches": args.group_batches,
            "max_wait_s": args.max_wait,
            "slo_s": args.slo,
            "engine": args.engine,
            "faults": faults,
            "scheduler": args.scheduler,
        },
        "serve": {
            "arrival": "trace" if replay else args.arrival,
            "arrival_options": {"path": replay} if replay else {},
            "requests": args.requests,
            "rate_per_s": args.rate,
        },
    }
    apply_overrides(tree, args.set_overrides)
    config = RunConfig.from_dict(tree)
    _maybe_enable_trace(args)
    try:
        report = run_cluster(config)
    except FileNotFoundError:
        raise SystemExit(f"arrival trace file not found: {replay}") from None
    _finish_trace(args, report=report)
    if args.json:
        emit_json("serve", report.to_dict(), config=config)
    else:
        print(report.summary())
    return 0


def _experiments_runner(args):
    from repro.experiments import ArtifactStore, Runner

    store = ArtifactStore(args.cache) if args.cache else ArtifactStore()
    return Runner(
        store,
        jobs=getattr(args, "jobs", 1),
        full=args.full,
        force=getattr(args, "force", False),
    )


def cmd_experiments_list(args) -> int:
    from repro.experiments import all_experiments

    runner = _experiments_runner(args)
    rows = []
    for experiment in all_experiments():
        spec = experiment.make_spec(args.full)
        cells = spec.cells()
        cached = sum(1 for c in cells if runner.store.has(c.key))
        rows.append(
            {
                "name": experiment.name,
                "title": experiment.title,
                "cells": len(cells),
                "cached": cached,
                "spec_hash": spec.spec_hash(),
            }
        )
    if args.json:
        emit_json("experiments list", {"experiments": rows, "full": args.full})
        return 0
    for row in rows:
        print(
            f"{row['name']:<8} {row['cells']:>4} cells "
            f"({row['cached']:>4} cached)  {row['title']}"
        )
    return 0


def _resolve_experiments(names):
    from repro.experiments import all_experiments, get_experiment

    if not names:
        return all_experiments()
    try:
        return [get_experiment(name) for name in names]
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def cmd_experiments_run(args) -> int:
    runner = _experiments_runner(args)
    experiments = _resolve_experiments(args.names)
    _maybe_enable_trace(args)
    rows = []
    for experiment in experiments:
        run = runner.run(experiment.make_spec(args.full))
        rows.append(
            {
                "name": experiment.name,
                "cells": run.stats.total,
                "computed": run.stats.computed,
                "cached": run.stats.cached,
                "hit_rate": run.stats.hit_rate,
            }
        )
        if not args.json:
            print(
                f"{experiment.name:<8} {run.stats.total:>4} cells: "
                f"{run.stats.computed} computed, {run.stats.cached} cached "
                f"({run.stats.hit_rate:.0%} hit rate)"
            )
    _finish_trace(args)
    if args.json:
        emit_json(
            "experiments run",
            {
                "experiments": rows,
                "full": args.full,
                "jobs": args.jobs,
                "cache_dir": str(runner.store.root),
            },
        )
    return 0


def cmd_experiments_report(args) -> int:
    from repro.experiments import report_is_stale, write_report

    _resolve_experiments(args.names)  # fail fast on unknown names
    runner = _experiments_runner(args)
    names = args.names or None
    if args.check:
        if report_is_stale(runner, args.out, names):
            print(
                f"{args.out} is stale — regenerate with "
                "`python -m repro.cli experiments report`"
            )
            return 1
        print(f"{args.out} is up to date")
        return 0
    path = write_report(runner, args.out, names)
    print(f"wrote {path}")
    return 0


def _clear_perf_memos() -> None:
    """Reset process-wide memos so bench timings measure cold work."""
    from repro.cluster.replica import clear_group_timing_memo
    from repro.core.engine import clear_warmup_trace_memo
    from repro.routing.oracle import clear_step_routing_memo

    clear_step_routing_memo()
    clear_warmup_trace_memo()
    clear_group_timing_memo()


# The fleet-scale serving cell: one million requests across a 64-replica
# fleet, timed through the serial event loop and the batched scan so
# BENCH.json tracks both the specification's and the fast engine's
# throughput. Round-robin keeps the stream plannable (the scan's fast
# path); the rate is high enough that groups fill under load.
_BENCH_CLUSTER_PARAMS = {
    "requests": 1_000_000,
    "replicas": 64,
    "router": "round-robin",
    "rate_per_s": 2000.0,
    "group_batches": 2,
    "max_wait_s": 5.0,
}


def _bench_cluster(num_requests: int, num_replicas: int) -> dict:
    """Time the fleet-scale cluster cell: stream build + serial + batched.

    Each engine starts from cold memos and a fresh fleet on the *same*
    request stream, so the two timings measure exactly the work the
    differential harness proves equivalent.
    """
    from repro.api.run import build_requests, run_cluster

    params = dict(_BENCH_CLUSTER_PARAMS)
    params["requests"] = num_requests
    params["replicas"] = num_replicas
    tree = {
        "scenario": {
            "model": "mixtral-8x7b", "env": "env1", "batch_size": 16,
            "prompt_len": 64, "gen_len": 16, "seed": 7,
        },
        "system": {"name": "klotski", "options": {}},
        "cluster": {
            "replicas": num_replicas,
            "envs": [],
            "router": params["router"],
            "group_batches": params["group_batches"],
            "max_wait_s": params["max_wait_s"],
            "slo_s": 60.0,
        },
        "serve": {
            "arrival": "poisson",
            "requests": num_requests,
            "rate_per_s": params["rate_per_s"],
        },
    }
    config = RunConfig.from_dict(tree)
    t0 = time.perf_counter()
    requests = build_requests(config)
    build_s = time.perf_counter() - t0
    cell = {"params": params, "build_s": round(build_s, 4)}
    for engine in ENGINES:
        _clear_perf_memos()
        t0 = time.perf_counter()
        run_cluster(config, requests=requests, engine=engine)
        cell[f"{engine}_s"] = round(time.perf_counter() - t0, 4)
    # The iteration-level discipline on the same stream: not equivalent
    # work (different dispatch semantics), but the cost of the per-step
    # event loop is a perf surface worth pinning.
    continuous = dataclasses.replace(
        config,
        cluster=dataclasses.replace(config.cluster, scheduler="continuous"),
    )
    _clear_perf_memos()
    t0 = time.perf_counter()
    run_cluster(continuous, requests=requests)
    cell["continuous_s"] = round(time.perf_counter() - t0, 4)
    return cell


def _bench_optimize() -> dict:
    """Time the pass pipeline on the golden klotski schedule.

    Reports the schedule build cost, the pipeline's own wall overhead
    (baseline execution + every candidate's verification), and the
    makespan it buys, so BENCH.json tracks both the optimizer's cost
    and its benefit.
    """
    from repro.passes import PassPipeline
    from repro.validation.pass_differential import golden_pass_configs

    config = golden_pass_configs()[0]
    scenario = build_scenario(config.scenario)
    system = build_system(config.system)
    _clear_perf_memos()
    t0 = time.perf_counter()
    schedule = system.build(scenario).schedule
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = PassPipeline().run(schedule, scenario.hardware)
    pipeline_s = time.perf_counter() - t0
    return {
        "params": {
            "system": config.system.name,
            "passes": list(DEFAULT_PASS_QUEUE),
        },
        "build_s": round(build_s, 4),
        "pipeline_s": round(pipeline_s, 4),
        "baseline_makespan_s": round(result.baseline_makespan, 6),
        "optimized_makespan_s": round(result.makespan, 6),
        "accepted": list(result.accepted),
    }


# The paper's full-scale fig10 operating point (Mixtral-8x7B on Env1,
# bs = 64, n = 15, gen = 32) — the perf-smoke's end-to-end reference cell.
_BENCH_FULLSCALE_PARAMS = {
    "model": "mixtral-8x7b",
    "env": "env1",
    "batch_size": 64,
    "n": 15,
    "prompt_len": 512,
    "gen_len": 32,
    "seed": 1,
    "system": "klotski",
}


def _time_cell(task, *, repeat: int | None = None) -> tuple[float, int]:
    """Best-of-N wall time of one cell, in seconds.

    The old single-shot measurement rounded sub-millisecond cells (e.g.
    table2's pure-lookup cell) to ``0.0`` — useless as a regression
    baseline. Short cells now repeat (up to five reps or 50 ms of total
    work, whichever comes first) and report the *minimum*, the standard
    low-noise estimator; expensive cells still run exactly once, keeping
    the suite's wall time flat. ``repeat`` pins the rep count explicitly.
    """
    from repro.experiments.runner import execute_cell

    best = float("inf")
    total = 0.0
    reps = 0
    while True:
        _clear_perf_memos()
        t0 = time.perf_counter()
        execute_cell(task)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        total += elapsed
        reps += 1
        if repeat is not None:
            if reps >= repeat:
                break
        elif reps >= 5 or total >= 0.05:
            break
    return best, reps


def _cell_ms(seconds: float) -> float:
    """Milliseconds with a non-zero floor (a timing of 0.0 is always noise)."""
    return max(round(seconds * 1e3, 4), 0.001)


def _compare_bench(payload: dict, baseline: dict, tolerance: float) -> dict:
    """Diff this run's bench timings against a baseline BENCH.json payload.

    Cells are matched by experiment name; baselines written before the
    ``ms`` field exist are handled via their legacy ``seconds`` field.
    The full-scale fig10 cold/warm timings are compared when both sides
    carry them. A cell regresses when it is more than ``tolerance``
    (fractional) slower than its baseline.
    """
    rows = []
    regressions = []

    def add(name: str, base_ms: float | None, cur_ms: float) -> None:
        ratio = cur_ms / base_ms if base_ms else None
        regressed = ratio is not None and ratio > 1.0 + tolerance
        rows.append(
            {
                "experiment": name,
                "base_ms": base_ms,
                "ms": cur_ms,
                "ratio": round(ratio, 4) if ratio is not None else None,
                "regressed": regressed,
            }
        )
        if regressed:
            regressions.append(name)

    base_cells = {c["experiment"]: c for c in baseline.get("cells", [])}
    for cell in payload["cells"]:
        base = base_cells.get(cell["experiment"])
        if base is None:
            continue
        base_ms = base.get("ms")
        if base_ms is None and "seconds" in base:
            base_ms = base["seconds"] * 1e3
        add(cell["experiment"], base_ms, cell["ms"])
    full, base_full = payload.get("fullscale_fig10"), baseline.get("fullscale_fig10")
    if full and base_full:
        for key in ("cold_s", "warm_s"):
            if key in full and key in base_full:
                add(
                    f"fullscale_fig10.{key}",
                    base_full[key] * 1e3,
                    full[key] * 1e3,
                )
    clus, base_clus = payload.get("cluster"), baseline.get("cluster")
    if clus and base_clus:
        for key in ("serial_s", "batched_s", "continuous_s"):
            if key in clus and key in base_clus:
                add(f"cluster.{key}", base_clus[key] * 1e3, clus[key] * 1e3)
    opt, base_opt = payload.get("optimize"), baseline.get("optimize")
    if opt and base_opt and "pipeline_s" in opt and "pipeline_s" in base_opt:
        add(
            "optimize.pipeline_s",
            base_opt["pipeline_s"] * 1e3,
            opt["pipeline_s"] * 1e3,
        )
    return {
        "tolerance": tolerance,
        "rows": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def cmd_bench(args) -> int:
    """Perf smoke: time one reduced cell per experiment into BENCH.json."""
    from pathlib import Path

    from repro.experiments.runner import execute_cell

    experiments = _resolve_experiments(args.names)
    cells = []
    suite_start = time.perf_counter()
    for experiment in experiments:
        cell = experiment.make_spec(False).cells()[0]
        best_s, reps = _time_cell((cell.runner, cell.params), repeat=args.repeat)
        cells.append(
            {
                "experiment": experiment.name,
                "runner": cell.runner,
                "ms": _cell_ms(best_s),
                "repeats": reps,
            }
        )
        if not args.json:
            print(
                f"{experiment.name:<8} {cell.runner:<18} "
                f"{_cell_ms(best_s):10.3f} ms (best of {reps})"
            )
    suite_wall = time.perf_counter() - suite_start

    payload = {
        "generated_by": "repro.cli bench",
        "suite_wall_s": round(suite_wall, 3),
        "cells": cells,
    }
    if not args.skip_full_cell:
        params = dict(_BENCH_FULLSCALE_PARAMS)
        _clear_perf_memos()
        t0 = time.perf_counter()
        execute_cell(("e2e", params))
        cold_s = time.perf_counter() - t0
        # Second run reuses the process-wide routing/warm-up memos — the
        # steady state of a grid run, where systems share the oracle.
        t0 = time.perf_counter()
        execute_cell(("e2e", params))
        warm_s = time.perf_counter() - t0
        payload["fullscale_fig10"] = {
            "params": params,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
        }
        if not args.json:
            print(
                f"fullscale_fig10: cold {cold_s:.3f} s, "
                f"warm (shared routing) {warm_s:.3f} s"
            )
    if not args.skip_optimize_cell:
        cell = _bench_optimize()
        payload["optimize"] = cell
        if not args.json:
            print(
                f"optimize: build {cell['build_s']:.3f} s, "
                f"pipeline {cell['pipeline_s']:.3f} s, makespan "
                f"{cell['baseline_makespan_s']:.4f} s -> "
                f"{cell['optimized_makespan_s']:.4f} s "
                f"(accepted: {', '.join(cell['accepted']) or 'none'})"
            )
    if args.cluster:
        cell = _bench_cluster(args.cluster_requests, args.cluster_replicas)
        payload["cluster"] = cell
        if not args.json:
            print(
                f"cluster ({cell['params']['requests']} requests / "
                f"{cell['params']['replicas']} replicas): "
                f"build {cell['build_s']:.3f} s, "
                f"serial {cell['serial_s']:.3f} s, "
                f"batched {cell['batched_s']:.3f} s, "
                f"continuous {cell['continuous_s']:.3f} s"
            )
    if args.baseline:
        try:
            payload["baseline"] = json.loads(Path(args.baseline).read_text())
        except FileNotFoundError:
            raise SystemExit(f"baseline file not found: {args.baseline}") from None
    compare = None
    if args.compare:
        try:
            baseline = json.loads(Path(args.compare).read_text())
        except FileNotFoundError:
            raise SystemExit(f"compare baseline not found: {args.compare}") from None
        compare = _compare_bench(payload, baseline, args.tolerance)
        payload["compare"] = compare
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        emit_json("bench", payload)
    else:
        print(f"wrote {args.out} (suite {suite_wall:.2f} s)")
        if compare is not None:
            for row in compare["rows"]:
                base = row["base_ms"]
                base_text = f"{base:10.3f}" if base is not None else "       n/a"
                ratio = row["ratio"]
                ratio_text = f"{ratio:6.2f}x" if ratio is not None else "    n/a"
                flag = "  REGRESSED" if row["regressed"] else ""
                print(
                    f"{row['experiment']:<24} {base_text} -> "
                    f"{row['ms']:10.3f} ms {ratio_text}{flag}"
                )
            if not compare["ok"]:
                print(
                    f"{len(compare['regressions'])} cell(s) regressed beyond "
                    f"{args.tolerance:.0%}: {', '.join(compare['regressions'])}"
                )
    if compare is not None and not compare["ok"]:
        return 1
    return 0


def cmd_validate(args) -> int:
    """Fuzz configs through the validation harness; exit 1 on failure."""
    from repro.validation import FuzzConfig, run_fuzz

    chaos = getattr(args, "chaos", 0)
    config = FuzzConfig(
        cases=chaos if chaos > 0 else args.fuzz,
        seed=args.seed,
        engine=args.engine,
        cluster_every=args.cluster_every,
        chaos=chaos > 0,
        passes=args.passes and chaos == 0,
    )
    report = run_fuzz(config)
    if config.passes:
        # Beyond the fuzzed cases, prove the pass contract on the fixed
        # golden pipeline schedules (the ones tests/test_goldens.py pins).
        from repro.validation.pass_differential import run_golden_pass_cases

        run_golden_pass_cases(report)
    if args.json:
        emit_json("validate", report.to_dict(), seed=args.seed)
    else:
        print(report.summary())
        if report.ok:
            print("OK: zero invariant violations, zero cross-engine diffs")
    return 0 if report.ok else 1


def cmd_sweep_n(args) -> int:
    first = _scenario(args, num_batches=args.n_min)
    grid = ResultGrid(
        f"Throughput vs n — {first.model.name} on {first.hardware.name} "
        f"(bs={first.workload.batch_size})",
        "n",
    )
    for n in range(args.n_min, args.n_max + 1, args.n_step):
        scenario = first.with_workload(first.workload.with_batches(n))
        result = build_system("klotski").run(scenario)
        grid.add("klotski", n, result.metrics.throughput)
    print(grid.render())
    return 0


def cmd_profile(args) -> int:
    """Trace one pipeline run and print where the simulator's wall time went."""
    from repro.obs import tracer

    config = _run_config(args, n=args.n or 4)
    scenario = build_scenario(config.scenario)
    obs.enable()
    result = build_system("klotski").run_safe(scenario)
    obs.disable()
    spans = tracer.spans_snapshot()
    if args.trace:
        save_trace(
            args.trace,
            spans=spans,
            timeline=None if result.oom else result.timeline,
        )
    if args.json:
        emit_json(
            "profile",
            {
                "oom": result.oom,
                "num_spans": len(spans),
                "top": tracer.aggregate_spans(spans)[: args.top],
            },
            config=config,
        )
        return 0
    print(tracer.format_span_tree(spans))
    print()
    print(tracer.format_top(spans, k=args.top))
    if args.trace:
        print(f"wrote trace {args.trace} (open in Perfetto or chrome://tracing)")
    return 0


def cmd_export_trace(args) -> int:
    """Deprecated alias: ``run --n N --trace OUT`` (``N`` defaults to 4)."""
    warnings.warn(
        "`export-trace` is deprecated; use `run --n N --trace PATH`",
        ReproDeprecationWarning,
        stacklevel=2,
    )
    args.n = args.n or 4
    args.trace = args.out
    return cmd_run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klotski-repro",
        description="Klotski (ASPLOS 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_parser(name: str, help: str):
        p = sub.add_parser(name, help=help)
        add_scenario_flags(p)
        add_set_flag(p)
        return p

    p = scenario_parser("plan", "solve for the bubble-free batch-group size n")
    p.set_defaults(func=cmd_plan)

    p = scenario_parser("calibrate", "measure per-layer timings")
    p.add_argument("--cache", help="JSON timing-cache path")
    p.set_defaults(func=cmd_calibrate)

    p = scenario_parser("run", "run Klotski and print metrics")
    p.add_argument("--n", type=int, default=None, help="batch-group size (default: planned)")
    p.add_argument("--quantize", action="store_true")
    p.add_argument(
        "--passes", nargs="?", const="default", default=None, metavar="P1,P2",
        help="optimize the schedule with this comma-separated pass queue "
        f"before execution (bare flag: {','.join(DEFAULT_PASS_QUEUE)})",
    )
    p.add_argument(
        "--trace",
        help="write a merged Chrome trace (self spans + simulated lanes) here",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_run)

    p = scenario_parser(
        "optimize",
        "run the schedule-optimization pass pipeline, report per-pass deltas",
    )
    p.add_argument("--n", type=int, default=None, help="batch-group size")
    p.add_argument(
        "--system", default="klotski", choices=system_names(),
        help="inference system whose schedule to optimize",
    )
    p.add_argument(
        "--passes", default="default", metavar="P1,P2",
        help="comma-separated pass queue "
        f"(default: {','.join(DEFAULT_PASS_QUEUE)})",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_optimize)

    p = scenario_parser("compare", "compare against the baselines")
    p.add_argument("--n", type=int, default=None)
    p.add_argument(
        "--systems",
        default="accelerate,fastgen,flexgen,moe-infinity,fiddler",
        help="comma-separated registered system names compared after the "
        f"Klotski variants (registered: {', '.join(system_names())})",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_compare)

    p = scenario_parser("serve", "simulate a multi-replica serving cluster")
    p.add_argument("--replicas", type=int, default=4, help="fleet size")
    p.add_argument(
        "--router", default="least-outstanding", choices=router_names(),
        help="request routing policy",
    )
    p.add_argument(
        "--envs",
        help="comma-separated env presets cycled across replicas "
        "(heterogeneous fleet); overrides --env",
    )
    p.add_argument("--requests", type=int, default=32, help="stream length")
    p.add_argument("--rate", type=float, default=2.0, help="mean arrivals/s")
    p.add_argument(
        "--arrival", default="poisson", choices=["poisson", "bursty"],
        help="arrival process",
    )
    p.add_argument(
        "--arrival-trace", help="replay arrivals from a JSON trace file"
    )
    p.add_argument(
        "--trace",
        help="write a merged Chrome trace (self spans + replica lanes) here",
    )
    p.add_argument("--group-batches", type=int, default=2,
                   help="batches per dispatched group")
    p.add_argument("--max-wait", type=float, default=60.0,
                   help="partial-group dispatch deadline (s)")
    p.add_argument("--slo", type=float, default=120.0,
                   help="latency SLO for goodput accounting (s)")
    p.add_argument(
        "--engine", default="serial", choices=ENGINES,
        help="simulation engine (bit-identical results; default: serial)",
    )
    p.add_argument(
        "--scheduler", default="group", choices=scheduler_names(),
        help="dispatch discipline: 'group' batches whole groups, "
        "'continuous' admits/preempts at decode-step boundaries",
    )
    p.add_argument(
        "--faults", default="",
        help="fault injection: a fault-preset name (see docs/robustness.md) "
        "or an inline FaultConfig JSON object; active faults force the "
        "serial event loop",
    )
    p.add_argument(
        "--fault-seed", type=int, default=None,
        help="override the fault schedule seed (requires --faults)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "experiments",
        help="declarative experiment orchestration (paper figures/tables)",
    )
    esub = p.add_subparsers(dest="experiments_command", required=True)

    def _common_experiment_args(ep, with_jobs: bool = True) -> None:
        ep.add_argument(
            "--full", action="store_true",
            help="paper-scale operating point (like REPRO_FULL=1)",
        )
        ep.add_argument(
            "--cache",
            help="artifact cache directory (default: $REPRO_CACHE_DIR "
            "or .repro-cache)",
        )
        if with_jobs:
            ep.add_argument(
                "--jobs", type=int, default=1,
                help="worker processes for uncached cells",
            )

    ep = esub.add_parser("list", help="list registered experiments")
    _common_experiment_args(ep, with_jobs=False)
    ep.add_argument("--json", action="store_true")
    ep.set_defaults(func=cmd_experiments_list)

    ep = esub.add_parser("run", help="run experiment grids (cache-backed)")
    ep.add_argument(
        "names", nargs="*",
        help="experiment names (default: all registered)",
    )
    _common_experiment_args(ep)
    ep.add_argument(
        "--force", action="store_true",
        help="recompute every cell, refreshing the cache",
    )
    ep.add_argument(
        "--trace",
        help="write a Chrome trace of cell execution (all workers) here",
    )
    ep.add_argument("--json", action="store_true")
    ep.set_defaults(func=cmd_experiments_run)

    ep = esub.add_parser(
        "report", help="render cached experiments into docs/results.md"
    )
    ep.add_argument(
        "names", nargs="*",
        help="experiment names (default: all registered)",
    )
    _common_experiment_args(ep)
    ep.add_argument("--out", default="docs/results.md")
    ep.add_argument(
        "--check", action="store_true",
        help="exit 1 if the report on disk is stale instead of writing",
    )
    ep.set_defaults(func=cmd_experiments_report)

    p = sub.add_parser(
        "bench",
        help="perf smoke: time one reduced cell per experiment -> BENCH.json",
    )
    p.add_argument(
        "names", nargs="*",
        help="experiment names (default: all registered)",
    )
    p.add_argument("--out", default="BENCH.json", help="output JSON path")
    p.add_argument(
        "--skip-full-cell", action="store_true",
        help="skip the full-scale fig10 reference cell",
    )
    p.add_argument(
        "--skip-optimize-cell", action="store_true",
        help="skip the pass-pipeline overhead cell",
    )
    p.add_argument(
        "--cluster", action="store_true",
        help="also time the fleet-scale cluster cell "
        "(serial + batched engines and the continuous scheduler on one "
        "request stream)",
    )
    p.add_argument(
        "--cluster-requests", type=int,
        default=_BENCH_CLUSTER_PARAMS["requests"], metavar="N",
        help="cluster cell stream length (default: 1000000)",
    )
    p.add_argument(
        "--cluster-replicas", type=int,
        default=_BENCH_CLUSTER_PARAMS["replicas"], metavar="N",
        help="cluster cell fleet size (default: 64)",
    )
    p.add_argument(
        "--baseline",
        help="JSON file of reference timings embedded under 'baseline'",
    )
    p.add_argument(
        "--compare", metavar="BASELINE.json",
        help="diff timings against this baseline; exit 1 on regression",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.5,
        help="fractional slowdown tolerated by --compare (default: 0.5)",
    )
    p.add_argument(
        "--repeat", type=int, default=None, metavar="N",
        help="pin the per-cell repetition count (default: adaptive)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON to stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "validate",
        help="fuzz configs through invariant checks and cross-engine diffs",
    )
    p.add_argument(
        "--fuzz", type=int, default=25, metavar="N",
        help="number of fuzzed cases (default: 25)",
    )
    p.add_argument("--seed", type=int, default=0, help="base campaign seed")
    p.add_argument(
        "--engine", default="both", choices=["both", "compiled", "legacy"],
        help="run both engines differentially, or a single engine with "
        "invariant checks only",
    )
    p.add_argument(
        "--cluster-every", type=int, default=4, metavar="K",
        help="every K-th case simulates a cluster instead of a pipeline",
    )
    p.add_argument(
        "--chaos", type=int, default=0, metavar="N",
        help="run N chaos cases instead: every case is a cluster run under "
        "a fuzzed FaultConfig, checked for request conservation and "
        "fault determinism (failures embed a replayable config blob)",
    )
    p.add_argument(
        "--passes", action="store_true",
        help="additionally run the schedule-optimization pass pipeline on "
        "the golden schedules and every fuzzed pipeline case, proving "
        "op-multiset conservation and makespan monotonicity",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_validate)

    p = scenario_parser("sweep-n", "throughput vs batch-group size")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--n-step", type=int, default=3)
    p.set_defaults(func=cmd_sweep_n)

    p = scenario_parser(
        "export-trace", "deprecated: use `run --n N --trace PATH`"
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default="klotski_trace.json")
    p.set_defaults(
        func=cmd_export_trace, quantize=False, passes=None, json=False
    )

    p = scenario_parser(
        "profile", "trace one pipeline run and print the span profile"
    )
    p.add_argument("--n", type=int, default=None, help="batch-group size")
    p.add_argument(
        "--top", type=int, default=15,
        help="rows in the by-span-name table (default: 15)",
    )
    p.add_argument(
        "--trace", help="also write the merged Chrome trace to this path"
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    global _CLI_T0
    _CLI_T0 = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigValidationError, RegistryError) as exc:
        # One aggregated, typo-suggesting report; exit like other usage
        # errors instead of dumping a traceback.
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
