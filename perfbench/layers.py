"""Per-layer attribution for the traced benchmark run.

The program under test has no spans below ``system.build``, so the
traced run times calls into each module's public functions from the
outside: :class:`LayerClock` swaps wrapped versions into the classes and
modules that own (or imported) them, runs one repetition, and restores
the originals. Time is *self* time: a wrapped call nested inside another
wrapped call is charged to its own layer and subtracted from its
caller's, so the layer times sum to at most the traced wall and
``unattributed_s`` is what no named layer claims.

``LAYERS`` is the per-layer metric table of ``BENCHMARK.json``, with the
end-to-end metric and workload each layer should move (and the workloads
it should leave alone) so that a delta can be traced to its cause.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PAPER = "paper-column"
GROUP = "fleet-group"
CONT = "fleet-continuous"
FLEETS = f"{GROUP}, {CONT}"

# (metric, unit, better, moves, should not move)
LAYERS = (
    ("routing.sample_s", "s", "lower", f"wall_s on {PAPER}", "fleets"),
    ("routing.memo_hit_ratio", "ratio", "higher", f"wall_s on {PAPER}", "fleets"),
    ("core.placement.plan_s", "s", "lower", f"wall_s on {PAPER}", "fleets"),
    ("core.prefetcher.warmup_s", "s", "lower", f"wall_s on {PAPER}", "fleets"),
    ("core.pipeline.build_s", "s", "lower", f"wall_s, ops_per_s on {PAPER}", "fleets"),
    ("core.pipeline.ops", "count", "lower", f"wall_s, ops_per_s on {PAPER}", "fleets"),
    ("runtime.schedule.validate_s", "s", "lower", f"wall_s on {PAPER}", "fleets"),
    ("runtime.schedule.freeze_s", "s", "lower", f"wall_s on {PAPER}", "fleets"),
    ("runtime.executor.run_s", "s", "lower", f"wall_s on {PAPER}", "fleets"),
    ("runtime.metrics.derive_s", "s", "lower", f"wall_s on {PAPER}", "fleets"),
    ("passes.run_s", "s", "lower", f"wall_s on {PAPER}", "fleets"),
    ("passes.coalesce-transfers.ms", "ms", "lower", f"wall_s on {PAPER}", "fleets"),
    ("passes.retime-prefetch.ms", "ms", "lower", f"wall_s on {PAPER}", "fleets"),
    ("passes.fill-bubbles.ms", "ms", "lower", f"wall_s on {PAPER}", "fleets"),
    ("passes.accept_ratio", "ratio", "higher", f"wall_s on {PAPER}", "fleets"),
    ("serving.requests.generate_s", "s", "lower", f"setup_s on {FLEETS}", PAPER),
    ("cluster.fleet_build_s", "s", "lower", f"wall_s on {FLEETS}", PAPER),
    ("cluster.replica.group_timing_misses", "count", "lower", f"wall_s on {FLEETS}", PAPER),
    ("cluster.simulator.run_s", "s", "lower", f"wall_s, requests_per_s on {GROUP}", f"{CONT}, {PAPER}"),
    ("cluster.events.dispatched_groups", "count", "lower", f"wall_s, requests_per_s on {GROUP}", f"{CONT}, {PAPER}"),
    ("cluster.events.full_group_ratio", "ratio", "higher", f"wall_s, requests_per_s on {GROUP}", f"{CONT}, {PAPER}"),
    ("serving.scheduler.run_s", "s", "lower", f"wall_s, requests_per_s on {CONT}", f"{GROUP}, {PAPER}"),
    ("serving.scheduler.decode_steps", "count", "lower", f"wall_s, requests_per_s on {CONT}", f"{GROUP}, {PAPER}"),
    ("serving.scheduler.admits_per_request", "ratio", "lower", f"wall_s, requests_per_s on {CONT}", f"{GROUP}, {PAPER}"),
    ("serving.scheduler.preemptions", "count", "lower", f"wall_s, requests_per_s on {CONT}", f"{GROUP}, {PAPER}"),
    ("cluster.faults.straggler_windows", "count", "lower", f"wall_s, requests_per_s on {CONT}", f"{GROUP}, {PAPER}"),
    ("cluster.report.metrics_s", "s", "lower", f"wall_s, peak_rss_mb on {FLEETS}", PAPER),
    ("unattributed_s", "s", "lower", "wall_s on every workload", "-"),
    ("attributed_ratio", "ratio", "higher", "- (attribution coverage)", "-"),
    ("traced_wall_s", "s", "lower", "wall_s on its workload", "-"),
    ("tracing_overhead_s", "s", "lower", "- (traced wall minus untraced median)", "-"),
)
MOVES = {name: (moves, keep) for name, _, _, moves, keep in LAYERS}

# Self-time layers: the timed region is split among these.
TIME_LAYERS = (
    "routing.sample_s",
    "core.placement.plan_s",
    "core.prefetcher.warmup_s",
    "core.pipeline.build_s",
    "runtime.schedule.validate_s",
    "runtime.schedule.freeze_s",
    "runtime.executor.run_s",
    "runtime.metrics.derive_s",
    "passes.run_s",
    "cluster.fleet_build_s",
    "cluster.simulator.run_s",
    "serving.scheduler.run_s",
    "cluster.report.metrics_s",
)


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _hooks() -> list[tuple[str, object, str]]:
    """(layer, owner, attribute) for every function the traced run wraps.

    Module-level functions are listed with the module that defines them;
    :meth:`LayerClock.install` also rebinds every other module's imported
    reference to the same function object.
    """
    import repro.analysis.bubbles as bubbles
    import repro.cluster.simulator as simulator
    import repro.runtime.metrics as metrics
    import repro.serving.requests as requests
    from repro.cluster.report import ClusterReport
    from repro.passes import PassPipeline
    from repro.routing.oracle import SyntheticOracle
    from repro.runtime.executor import Executor
    from repro.runtime.schedule import Schedule
    from repro.serving.scheduler import Scheduler
    from repro.systems import InferenceSystem

    hooks = [
        ("routing.sample_s", SyntheticOracle, "step_routing"),
        ("core.pipeline.build_s", InferenceSystem, "build"),
        ("runtime.schedule.validate_s", Schedule, "validate"),
        ("runtime.schedule.freeze_s", Schedule, "freeze"),
        ("runtime.executor.run_s", Executor, "run"),
        ("runtime.metrics.derive_s", metrics, "metrics_from_timeline"),
        ("runtime.metrics.derive_s", bubbles, "analyze_bubbles"),
        ("passes.run_s", PassPipeline, "run"),
        ("serving.requests.generate_s", requests, "generate_requests"),
        ("serving.requests.generate_s", requests, "generate_bursty"),
        ("serving.requests.generate_s", requests, "assign_hot_experts"),
        ("cluster.fleet_build_s", simulator, "build_cluster"),
        ("cluster.fleet_build_s", simulator.ClusterSimulator, "__init__"),
        ("cluster.simulator.run_s", simulator.ClusterSimulator, "run"),
        ("cluster.report.metrics_s", ClusterReport, "to_dict"),
        ("cluster.report.metrics_s", ClusterReport, "_metrics"),
        ("cluster.report.metrics_s", ClusterReport, "_class_metrics"),
        ("cluster.report.metrics_s", ClusterReport, "slo_class_metrics"),
    ]
    # Placement and prefetcher set-up are per-system hooks.
    for cls in _subclasses(InferenceSystem):
        if "make_placement" in vars(cls):
            hooks.append(("core.placement.plan_s", cls, "make_placement"))
        if "make_prefetcher" in vars(cls):
            hooks.append(("core.prefetcher.warmup_s", cls, "make_prefetcher"))
    for cls in _subclasses(Scheduler):
        if "run" in vars(cls):
            hooks.append(("serving.scheduler.run_s", cls, "run"))
    return hooks


class LayerClock:
    """Self-time accumulator over wrapped functions; see the module doc."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        # Return values the table needs: ops of every built schedule and
        # the decisions of every pass-pipeline run.
        self.built_ops = 0
        self.decisions: list = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.built_ops = 0
        self.decisions.clear()

    def _observe(self, layer: str, result) -> None:
        if layer == "core.pipeline.build_s":
            self.built_ops += len(result.schedule)
        elif layer == "passes.run_s":
            self.decisions.extend(result.decisions)

    def _wrap(self, layer: str, fn):
        stack, self_s = self._stack, self.self_s
        observe = layer in ("core.pipeline.build_s", "passes.run_s")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe:
                self._observe(layer, result)
            return result

        return timed

    def install(self) -> None:
        for layer, owner, attr in _hooks():
            original = vars(owner)[attr]
            wrapped = self._wrap(layer, original)
            self._set(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is owner or not name.startswith("repro"):
                    continue
                if vars(module).get(attr) is original:
                    self._set(module, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def counter_delta(before: dict, after: dict) -> dict:
    """Per-name increase of the program's process-wide counters."""
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def format_table(metrics: dict) -> str:
    """The per-layer table, each row with the end-to-end metric it moves."""
    lines = [f"{'layer metric':<38} {'value':>14}  moves"]
    for name, unit, _, moves, _ in LAYERS:
        value = metrics[name]["value"]
        lines.append(f"{name:<38} {value:>14.6g} {unit:<5} {moves}")
    return "\n".join(lines)
