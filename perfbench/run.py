#!/usr/bin/env python3
"""Run one benchmark workload and print its result as a JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-column --seed 3 --seconds 30 --trace 0

The simulator is imported from ``src/`` next to this directory. One
invocation is one fresh process that runs one workload serially:

1. set-up and the timed run repeat until ``--seconds`` have passed (at
   least ``MIN_REPS`` times), each repetition with cleared process-wide
   memos; ``wall_s`` and ``setup_s`` are medians over the repetitions;
2. outside the timed region, the outputs are checked: invariants on the
   seed's last repetition, first-vs-last repetition digests
   (determinism), and the digests of the workload's pinned reference
   seed against ``pinned.json``;
3. with ``--trace 1``, one more repetition runs with every layer hook
   installed (see ``layers.py``) and the per-layer metrics are reported
   instead of the end-to-end ones.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. ``--out FILE`` also appends the record to a JSON-lines file
that ``compare.py`` reads. ``--write-pinned`` re-pins the reference
digests of one workload (a deliberate behaviour change).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = HERE / "pinned.json"
WORKLOAD_NAMES = ("paper-column", "fleet-group", "fleet-continuous")
MIN_REPS = 3
UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
         "requests_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record to this JSON-lines file")
    parser.add_argument("--write-pinned", action="store_true",
                        help="re-pin the reference seed's digests and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_program():
    """Import the simulator from the checkout; returns (import_s, module)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import repro
    import workloads

    import_s = perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return import_s, workloads


def clear_memos() -> None:
    from repro.cluster.replica import clear_group_timing_memo
    from repro.core.engine import clear_warmup_trace_memo
    from repro.routing.oracle import clear_step_routing_memo

    clear_step_routing_memo()
    clear_warmup_trace_memo()
    clear_group_timing_memo()


def digests(workload, inputs, results) -> dict:
    return {
        label: workload.digest(result)
        for label, result in workload.operations(inputs, results)
        if not isinstance(result, Exception)
    }


class Tally:
    """Attempted/failed operations, with one note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def count(self, workload, inputs, results) -> None:
        """Each cell or fleet run is one operation; exceptions fail it."""
        for label, result in workload.operations(inputs, results):
            self.attempted += 1
            if isinstance(result, Exception):
                self.fail(f"{label}: raised {result!r}")

    def compare(self, what: str, expected: dict, actual: dict) -> None:
        for label, digest in actual.items():
            if expected.get(label) != digest:
                self.fail(f"{label}: {what} digest {digest} != {expected.get(label)}")

    def invariants(self, workload, inputs, results, what: str) -> None:
        for label, result in workload.operations(inputs, results):
            if isinstance(result, Exception):
                continue
            for v in workload.violations(inputs, label, result):
                self.fail(f"{label}: {what} invariant {v}")


def measure(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Timed repetitions; keeps only the last repetition's outputs."""
    setups, walls = [], []
    first = inputs = results = None
    start = perf_counter()
    while len(walls) < MIN_REPS or perf_counter() - start < seconds:
        inputs = results = None
        gc.collect()
        t0 = perf_counter()
        inputs = workload.setup(seed)
        setups.append(perf_counter() - t0)
        clear_memos()
        t0 = perf_counter()
        results = workload.run(inputs)
        walls.append(perf_counter() - t0)
        tally.count(workload, inputs, results)
        if first is None:
            first = digests(workload, inputs, results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.compare("repetition", first, digests(workload, inputs, results))
    return {
        "setups": setups, "walls": walls, "peak_rss_mb": peak_rss_mb,
        "inputs": inputs, "results": results,
    }


def check_pinned(workload, seed: int, run: dict, tally: Tally) -> None:
    """Invariants on this seed; digests + invariants on the pinned seed."""
    pinned = json.loads(PINNED.read_text()).get(workload.name)
    if pinned is None:
        tally.fail(f"{workload.name}: no pinned digests in {PINNED.name}")
        return
    if seed == workload.pinned_seed:
        inputs, results = run["inputs"], run["results"]
    else:
        tally.invariants(workload, run["inputs"], run["results"], f"seed {seed}")
        inputs = workload.setup(workload.pinned_seed)
        clear_memos()
        results = workload.run(inputs)
        tally.count(workload, inputs, results)
    what = f"pinned seed {workload.pinned_seed}"
    tally.compare(what, pinned, digests(workload, inputs, results))
    tally.invariants(workload, inputs, results, what)


def write_pinned(workload) -> None:
    tally = Tally()
    inputs = workload.setup(workload.pinned_seed)
    clear_memos()
    results = workload.run(inputs)
    tally.count(workload, inputs, results)
    tally.invariants(workload, inputs, results, "pinned")
    if tally.failed:
        sys.exit("perfbench: not pinning a failing run:\n" + "\n".join(tally.notes))
    table = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    table[workload.name] = digests(workload, inputs, results)
    PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {tally.attempted} digest(s) for {workload.name} seed {workload.pinned_seed}")


def traced(workload, seed: int, untraced_wall: float) -> dict:
    """One repetition under the layer hooks; returns the per-layer metrics."""
    from layers import LAYERS, TIME_LAYERS, LayerClock, counter_delta, ratio
    from repro.obs import counters_snapshot

    clock = LayerClock()
    clock.install()
    try:
        gc.collect()
        inputs = workload.setup(seed)
        generate_s = clock.self_s["serving.requests.generate_s"]
        clock.reset()
        clear_memos()
        before = counters_snapshot()
        t0 = perf_counter()
        results = workload.run(inputs)
        wall = perf_counter() - t0
        counters = counter_delta(before, counters_snapshot())
    finally:
        clock.uninstall()

    fleet = {}
    for _, result in workload.operations(inputs, results):
        if isinstance(result, tuple):
            fleet = result[0].counters
    attributed = sum(clock.self_s[name] for name in TIME_LAYERS)
    hits = counters.get("memo.step_routing.hit", 0)
    misses = counters.get("memo.step_routing.miss", 0)
    pass_ms: dict[str, float] = {}
    for d in clock.decisions:
        pass_ms[d.name] = pass_ms.get(d.name, 0.0) + d.wall_ms
    values = {name: clock.self_s[name] for name in TIME_LAYERS}
    values.update({
        "serving.requests.generate_s": generate_s,
        "routing.memo_hit_ratio": ratio(hits, hits + misses),
        "core.pipeline.ops": clock.built_ops,
        "passes.coalesce-transfers.ms": pass_ms.get("coalesce-transfers", 0.0),
        "passes.retime-prefetch.ms": pass_ms.get("retime-prefetch", 0.0),
        "passes.fill-bubbles.ms": pass_ms.get("fill-bubbles", 0.0),
        "passes.accept_ratio": ratio(
            sum(d.accepted for d in clock.decisions), len(clock.decisions)
        ),
        "cluster.replica.group_timing_misses": counters.get("memo.group_timing.miss", 0),
        "cluster.events.dispatched_groups": fleet.get("dispatched_groups", 0),
        "cluster.events.full_group_ratio": ratio(
            fleet.get("full_group_dispatches", 0), fleet.get("dispatched_groups", 0)
        ),
        "serving.scheduler.decode_steps": fleet.get("decode_steps", 0),
        "serving.scheduler.admits_per_request": ratio(
            fleet.get("admitted_requests", 0), fleet.get("arrivals", 0)
        ),
        "serving.scheduler.preemptions": fleet.get("preemptions", 0),
        "cluster.faults.straggler_windows": fleet.get("straggler_windows", 0),
        "unattributed_s": wall - attributed,
        "attributed_ratio": ratio(attributed, wall),
        "traced_wall_s": wall,
        "tracing_overhead_s": wall - untraced_wall,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in LAYERS}


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s, workloads = load_program()
    workload = workloads.WORKLOADS[args.workload]
    if args.write_pinned:
        write_pinned(workload)
        return 0

    tally = Tally()
    run = measure(workload, args.seed, args.seconds, tally)
    wall = statistics.median(run["walls"])
    ops, requests = workload.work(run["inputs"], run["results"])
    print(f"{workload.name} seed {args.seed}: {len(run['walls'])} repetitions, "
          f"wall median {wall:.4f} s (min {min(run['walls']):.4f}, "
          f"max {max(run['walls']):.4f})")
    print("simulated outputs (informational, not gated):")
    for line in workload.info(run["inputs"], run["results"]):
        print(line)
    check_pinned(workload, args.seed, run, tally)
    values = {
        "setup_s": import_s + statistics.median(run["setups"]),
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "requests_per_s": requests / wall,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    del run
    if args.trace:
        from layers import format_table

        metrics = traced(workload, args.seed, wall)
        print(format_table(metrics))
    print(f"src/ lines: {src_lines()}")
    for note in tally.notes:
        print(f"FAILED {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
