#!/usr/bin/env python3
"""Compare two benchmark result sets, end to end and layer by layer.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out FILE`` appends (untraced and
traced runs may be mixed). Values are reduced to their median per
workload and metric. Every workload prints its end-to-end deltas first,
then its per-layer deltas, largest relative change first, each next to
the end-to-end metric that layer should move — so a regression in
``wall_s`` names the layer it came from.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from layers import LAYERS, MOVES

BETTER = {name: better for name, _, better, *_ in LAYERS}
BETTER.update({"setup_s": "lower", "wall_s": "lower", "ops_per_s": "higher",
               "requests_per_s": "higher", "peak_rss_mb": "lower"})


def medians(path: str) -> dict[str, dict[str, float]]:
    """{workload: {metric: median value}} over every record in the file."""
    values: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        per = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return {
        w: {name: statistics.median(v) for name, v in per.items()}
        for w, per in values.items()
    }


def delta_row(name: str, base: float, new: float, note: str = "") -> tuple[float, str]:
    rel = (new - base) / abs(base) if base else 0.0
    worse = (rel > 0) if BETTER.get(name) == "lower" else (rel < 0)
    flag = "  worse" if worse and abs(rel) > 0.02 else ""
    row = f"  {name:<38} {base:>12.5g} -> {new:>12.5g}  {rel:+8.2%}{flag}"
    return abs(rel), row + (f"   [{note}]" if note else "")


def compare(base: dict, new: dict) -> str:
    out = []
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        names = sorted(set(b) & set(n))
        out.append(f"{workload}")
        e2e = [delta_row(k, b[k], n[k]) for k in names if k not in MOVES]
        layer = [delta_row(k, b[k], n[k], "moves " + MOVES[k][0])
                 for k in names if k in MOVES]
        out.append(" end to end:")
        out.extend(row for _, row in e2e)
        if layer:
            out.append(" per layer (largest change first):")
            out.extend(row for _, row in sorted(layer, key=lambda r: -r[0]))
    return "\n".join(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(compare(medians(argv[0]), medians(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
