"""The benchmark's three workloads.

Each workload turns a seed into inputs (:meth:`setup`), runs one timed
repetition on them (:meth:`run`), and derives from the outputs a digest
(pinned for the workload's reference seed in ``pinned.json``), the
invariant violations, the work done, and an informational summary of the
simulated numbers. Only :meth:`run` is timed as ``wall_s``.

Every workload runs in one process on the serial engine (``jobs=1``) and
calls the cell functions' building blocks and ``repro.api`` runners
directly, so the ``.repro-cache`` artifact store is never consulted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.api import RunConfig
from repro.api.run import build_requests, build_scenario, build_system, run_cluster
from repro.experiments.paper import E2E_SYSTEMS
from repro.passes import DEFAULT_PASS_QUEUE

TENANTS = ("interactive", "standard", "batch")


def _round(x):
    """12 significant digits: pins behaviour, not the last float bit."""
    return float(f"{x:.12g}") if isinstance(x, float) else x


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class PaperColumn:
    """Figure 10's full-scale column: every compared system on one point.

    Mixtral-8x7B on env1, bs=64, n=15, prompt 512; ``GEN_LEN`` is the
    length knob. The seven ``E2E_SYSTEMS`` run plus Klotski with the
    default pass queue.
    """

    name = "paper-column"
    pinned_seed = 1
    GEN_LEN = 4

    def configs(self, seed: int) -> list[tuple[str, RunConfig]]:
        scenario = {
            "model": "mixtral-8x7b", "env": "env1", "batch_size": 64, "n": 15,
            "prompt_len": 512, "gen_len": self.GEN_LEN, "seed": seed,
        }
        systems = [(name, {"name": name}) for name in E2E_SYSTEMS]
        systems.append(
            ("klotski+passes", {"name": "klotski", "passes": list(DEFAULT_PASS_QUEUE)})
        )
        return [
            (label, RunConfig.from_dict({"scenario": scenario, "system": system}))
            for label, system in systems
        ]

    def setup(self, seed: int) -> list:
        return [
            (label, build_system(cfg.system), build_scenario(cfg.scenario))
            for label, cfg in self.configs(seed)
        ]

    def run(self, inputs: list) -> list:
        """Run every cell; an exception fails that cell only."""
        results = []
        for _, system, scenario in inputs:
            try:
                results.append(system.run_safe(scenario))
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                results.append(exc)
        return results

    def operations(self, inputs, results) -> list:
        return [(label, result) for (label, _, _), result in zip(inputs, results)]

    @staticmethod
    def final_schedule(result):
        return result.passes.schedule if result.passes is not None else result.build.schedule

    def work(self, inputs, results) -> tuple[int, int]:
        """(schedule ops executed, sequences generated) across the column."""
        ops = seqs = 0
        for (_, _, scenario), result in zip(inputs, results):
            if isinstance(result, Exception) or result.oom:
                continue
            ops += len(self.final_schedule(result))
            seqs += scenario.workload.batch_size * scenario.workload.num_batches
        return ops, seqs

    def digest(self, result) -> dict:
        from repro.analysis.bubbles import analyze_bubbles

        if result.oom:
            return {"oom": True}
        return {
            "oom": False,
            "makespan_s": _round(result.timeline.makespan),
            "throughput_tok_s": _round(result.metrics.throughput),
            "bubble_fraction": _round(analyze_bubbles(result.timeline).bubble_fraction),
        }

    def violations(self, inputs, label: str, result) -> list[str]:
        from repro.validation.invariants import check_timeline

        if result.oom:
            return []
        scenario = next(sc for lab, _, sc in inputs if lab == label)
        found = check_timeline(
            self.final_schedule(result),
            result.timeline,
            capacities={"vram": scenario.hardware.usable_vram()},
        )
        return [str(v) for v in found]

    def info(self, inputs, results) -> list[str]:
        lines = []
        for (label, _, _), result in zip(inputs, results):
            if isinstance(result, Exception):
                lines.append(f"  {label:<15} error: {result!r}")
            elif result.oom:
                lines.append(f"  {label:<15} OOM")
            else:
                d = self.digest(result)
                lines.append(
                    f"  {label:<15} {d['throughput_tok_s']:9.3f} tok/s  "
                    f"bubbles {d['bubble_fraction']:.2%}  "
                    f"makespan {d['makespan_s']:.2f} s (simulated)"
                )
        return lines


class _Fleet:
    """Shared shape of the two fleet workloads (one run per repetition)."""

    pinned_seed = 7
    tree: dict

    def config(self, seed: int) -> RunConfig:
        tree = json.loads(json.dumps(self.tree))
        tree["scenario"]["seed"] = seed
        return RunConfig.from_dict(tree)

    def tag(self, requests: list) -> list:
        return requests

    def setup(self, seed: int) -> list:
        config = self.config(seed)
        return [(self.name, config, self.tag(build_requests(config)))]

    def run(self, inputs: list) -> list:
        (_, config, requests), = inputs
        try:
            report = run_cluster(config, requests=requests, engine="serial", jobs=1)
            return [(report, report.to_dict())]
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return [exc]

    def operations(self, inputs, results) -> list:
        return [(self.name, results[0])]

    def work(self, inputs, results) -> tuple[int, int]:
        """(simulator events handled, requests reaching a terminal outcome)."""
        result = results[0]
        if isinstance(result, Exception):
            return 0, 0
        report, _ = result
        c = report.counters
        events = c.get("arrivals", 0) + c.get("completions", 0)
        events += c.get("dispatched_groups", 0) + c.get("decode_steps", 0)
        return events, len(report.records)

    def digest(self, result) -> dict:
        report, payload = result
        records = sorted(payload["requests"], key=lambda e: e["request_id"])
        records = [{k: _round(v) for k, v in e.items()} for e in records]
        return {
            "requests": len(records),
            "records_sha256": _sha(records),
            "makespan_s": _round(payload["makespan_s"]),
            "p99_latency_s": _round(payload["p99_latency_s"]),
            "goodput_tok_s": _round(payload["goodput_tok_s"]),
        }

    def violations(self, inputs, label: str, result) -> list[str]:
        from repro.validation.invariants import check_cluster

        (_, _, requests), = inputs
        return [str(v) for v in check_cluster(result[0], requests)]

    def info(self, inputs, results) -> list[str]:
        result = results[0]
        if isinstance(result, Exception):
            return [f"  error: {result!r}"]
        _, p = result
        return [
            f"  {p['num_requests']} requests on {p['num_replicas']} replicas: "
            f"p99 latency {p['p99_latency_s']:.2f} s, goodput "
            f"{p['goodput_tok_s']:.1f} tok/s, SLO attainment "
            f"{p['slo_attainment']:.2%}, makespan {p['makespan_s']:.1f} s (simulated)"
        ]


class FleetGroup(_Fleet):
    """ROADMAP's fleet cell, scaled down: the group loop under backlog."""

    name = "fleet-group"
    REQUESTS = 20_000
    tree = {
        "scenario": {
            "model": "mixtral-8x7b", "env": "env1", "batch_size": 16,
            "prompt_len": 64, "gen_len": 16,
        },
        "system": {"name": "klotski"},
        "cluster": {
            "replicas": 16, "router": "round-robin", "group_batches": 2,
            "max_wait_s": 5.0, "slo_s": 60.0, "scheduler": "group",
            "engine": "serial", "jobs": 1,
        },
        "serve": {"arrival": "poisson", "requests": REQUESTS, "rate_per_s": 2000.0},
    }


class FleetContinuous(_Fleet):
    """Continuous batching under bursts and stragglers near capacity."""

    name = "fleet-continuous"
    REQUESTS = 12_000
    tree = {
        "scenario": {
            "model": "mixtral-8x7b", "env": "env1", "batch_size": 16,
            "prompt_len": 64, "gen_len": 16,
        },
        "system": {"name": "klotski"},
        "cluster": {
            "replicas": 16, "router": "least-outstanding", "group_batches": 2,
            "max_wait_s": 5.0, "slo_s": 60.0, "scheduler": "continuous",
            "faults": "stragglers", "engine": "serial", "jobs": 1,
        },
        "serve": {"arrival": "bursty", "requests": REQUESTS, "rate_per_s": 10.0},
    }

    def tag(self, requests: list) -> list:
        """Tenants cycled by request id, as in the ``serving`` experiment."""
        return [
            dataclasses.replace(r, slo_class=TENANTS[r.request_id % len(TENANTS)])
            for r in requests
        ]


WORKLOADS = {w.name: w for w in (PaperColumn(), FleetGroup(), FleetContinuous())}
