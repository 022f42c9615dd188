"""Materialize and execute declarative :class:`RunConfig` trees.

The build functions here are the only path from a config to runtime
objects — the CLI, the experiment grids, and the fuzzer all construct
scenarios, systems, fleets, and request streams through them, so
resolution and validation happen once, centrally.

Domain modules are imported lazily: this module sits below the whole
stack in the import graph, so ``repro.api`` stays importable from any
layer without cycles.
"""

from __future__ import annotations

import warnings

from repro.api.config import RunConfig, ScenarioConfig, ServeConfig, SystemConfig
from repro.api.registry import ARRIVALS
from repro.errors import ReproDeprecationWarning
from repro.obs import span


def build_scenario(config: ScenarioConfig):
    """Materialize a :class:`~repro.scenario.Scenario` from its config."""
    return config.build()


def build_system(config: SystemConfig | str):
    """Instantiate a registered inference system.

    Args:
        config: a :class:`SystemConfig`, or a bare registry name.

    Returns:
        A fresh :class:`~repro.systems.InferenceSystem`.
    """
    if isinstance(config, str):
        config = SystemConfig(name=config)
    return config.build()


def build_requests(run: RunConfig) -> list:
    """Generate the request stream a serving run is driven by.

    The generator parameters are derived from the scenario (prompt/gen
    lengths, seed) plus the :class:`ServeConfig` (arrival kind, rate),
    with ``arrival_options`` merged on top; hot-expert tags follow the
    configured tagging policy.

    Args:
        run: a config whose ``serve`` section is set (defaults are used
            when it is None).

    Returns:
        The request list, ready for :func:`run_cluster`.
    """
    from repro.serving.requests import assign_hot_experts

    scenario = run.scenario
    serve = run.serve or ServeConfig()
    params = _arrival_params(serve, scenario)
    requests = ARRIVALS.get(serve.arrival)(serve.requests, **params)

    policy = dict(serve.hot_experts)
    mode = policy.get("mode", "auto")
    model = _resolve_model_strict(scenario)
    if mode == "pin":
        import dataclasses

        expert = int(policy.get("expert", 0))
        requests = [dataclasses.replace(r, hot_expert=expert) for r in requests]
    elif mode == "zipf" or (
        mode == "auto" and all(r.hot_expert is None for r in requests)
    ):
        requests = assign_hot_experts(
            requests,
            model.num_experts,
            skew=float(policy.get("skew", 1.1)),
            seed=int(policy.get("seed", scenario.seed)),
        )
    return requests


def _arrival_params(serve: ServeConfig, scenario: ScenarioConfig) -> dict:
    """Scenario-derived generator parameters, then explicit overrides."""
    if serve.arrival == "trace":
        return dict(serve.arrival_options)
    params = {
        "prompt_len_mean": scenario.prompt_len,
        "gen_len": scenario.gen_len,
        "seed": scenario.seed,
    }
    if serve.arrival == "bursty":
        # Calm/burst rates chosen so the *mean* rate equals rate_per_s:
        # with equal time in each state, 0.5/base + 0.5/burst = 1/rate.
        params["base_rate_per_s"] = serve.rate_per_s * 0.625
        params["burst_rate_per_s"] = serve.rate_per_s * 2.5
    else:
        params["rate_per_s"] = serve.rate_per_s
    params.update(serve.arrival_options)
    return params


def _resolve_model_strict(scenario: ScenarioConfig):
    from repro.api.config import Errors, _resolve_model

    errors = Errors()
    model = _resolve_model(scenario.model, "scenario.model", errors)
    errors.raise_if_any("scenario config")
    return model


def build_fleet(run: RunConfig, *, shared_cache: dict | None = None) -> list:
    """Build the configured replica fleet.

    Args:
        run: a config whose ``cluster`` section is set.
        shared_cache: group-timing cache override (pass ``{}`` to
            isolate this fleet, e.g. for determinism checks).

    Returns:
        One :class:`~repro.cluster.replica.Replica` per configured
        replica, cycling the configured environments. Each serves groups
        of ``scenario.batch_size × cluster.group_batches`` requests.
    """
    from repro.cluster import build_cluster
    from repro.routing.workload import Workload

    if run.cluster is None:
        raise ValueError("run config has no cluster section")
    scenario, cluster = run.scenario, run.cluster
    return build_cluster(
        _resolve_model_strict(scenario),
        cluster.resolve_environments(scenario.env),
        Workload(
            scenario.batch_size,
            cluster.group_batches,
            scenario.prompt_len,
            scenario.gen_len,
        ),
        system_factory=run.system.build,
        seed=scenario.seed,
        prompt_quantum=cluster.prompt_quantum,
        shared_cache=shared_cache,
        timeline_stride=cluster.queue_depth_stride,
    )


def run_pipeline(run: RunConfig):
    """Execute a single-machine run end to end.

    Args:
        run: the declarative run description.

    Returns:
        The system's :class:`~repro.systems.SystemResult` (OOM becomes
        an explicit failed result, never an exception).
    """
    system = build_system(run.system)
    return system.run_safe(build_scenario(run.scenario))


def run_cluster(
    run: RunConfig,
    *,
    shared_cache: dict | None = None,
    requests: list | None = None,
    engine: str | None = None,
    jobs: int | None = None,
):
    """Execute a multi-replica serving run end to end.

    Args:
        run: a config with ``cluster`` (and usually ``serve``) sections.
        shared_cache: group-timing cache override (see
            :func:`build_fleet`).
        requests: a pre-built request stream (default: generated from
            the config via :func:`build_requests`); pass one when the
            caller also needs the stream, to avoid re-generating it.
        engine: simulation engine override (default: the config's
            ``cluster.engine``); both engines are bit-identical, see
            :mod:`repro.cluster.engines`.
        jobs: deprecated and ignored (default: ``cluster.jobs``); any
            value but 1 warns.

    Returns:
        The :class:`~repro.cluster.report.ClusterReport`.
    """
    from repro.cluster import ClusterSimulator

    cluster = run.cluster
    if cluster is None:
        raise ValueError("run config has no cluster section")
    engine = engine if engine is not None else cluster.engine
    if (jobs if jobs is not None else cluster.jobs) != 1:
        warnings.warn(
            "cluster `jobs` is deprecated and ignored",
            ReproDeprecationWarning,
            stacklevel=2,
        )
    # Requests first: stream generation is cheap and carries the
    # fail-fast errors (missing trace file), fleet building is the
    # expensive half.
    if requests is None:
        requests = build_requests(run)
    with span("cluster.fleet_build", {"replicas": cluster.replicas}):
        replicas = build_fleet(run, shared_cache=shared_cache)
        simulator = ClusterSimulator(replicas, cluster.build_router(), cluster)
    return simulator.run(requests, engine=engine)
