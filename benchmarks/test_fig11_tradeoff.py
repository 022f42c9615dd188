"""Figure 11: throughput-latency trade-off.

Reuses the session end-to-end grid: for each system the (throughput,
latency) points across batch sizes form the trade-off curve; the paper's
claim is that Klotski's curve sits toward the lower right (more throughput
at equal or lower latency) and that quantization improves the curve even
where it does not raise peak throughput.
"""

import pytest

from common import BATCH_SIZES, SCENARIOS

from conftest import record_report


def pareto_dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """(throughput, latency) a dominates b: faster and no more latency."""
    return a[0] >= b[0] and a[1] <= b[1]


@pytest.fixture(scope="module")
def curves(e2e_results):
    throughput, latency = e2e_results
    out = {}
    for scenario in SCENARIOS:
        tp, lat = throughput[scenario.key], latency[scenario.key]
        out[scenario.key] = {
            system: [
                (tp.get(system, bs), lat.get(system, bs))
                for bs in BATCH_SIZES
                if tp.get(system, bs) == tp.get(system, bs)
            ]
            for system in tp.systems()
        }
    return out


def test_fig11_curves_rendered(benchmark, curves):
    def render():
        lines = []
        for key, by_system in curves.items():
            lines.append(f"Throughput-latency trade-off — {key}")
            lines.append(f"{'system':<20} " + "  ".join(
                f"{'(tok/s, s)':>16}" for _ in BATCH_SIZES))
            for system, points in by_system.items():
                cells = "  ".join(
                    f"({t:7.2f},{l:7.0f})" for t, l in points
                )
                lines.append(f"{system:<20} {cells}")
            lines.append("")
        return "\n".join(lines)

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    record_report("fig11_throughput_latency", text)
    assert "klotski" in text


def test_klotski_on_pareto_frontier(benchmark, curves):
    """No baseline point dominates any Klotski point."""

    def violations():
        bad = []
        for key, by_system in curves.items():
            for kp in by_system.get("klotski", []):
                for system, points in by_system.items():
                    if system.startswith("klotski"):
                        continue
                    for bp in points:
                        if pareto_dominates(bp, kp) and bp != kp:
                            bad.append((key, system, bp, kp))
        return bad

    assert benchmark.pedantic(violations, rounds=1, iterations=1) == []


def test_quantization_improves_tradeoff(benchmark, curves):
    """§9.3: Klotski(q) reaches equal-or-better throughput at lower latency
    for the same workload point."""

    def check():
        wins = 0
        total = 0
        for by_system in curves.values():
            for (tq, lq), (tp, lp) in zip(by_system["klotski(q)"], by_system["klotski"]):
                total += 1
                if tq >= tp * 0.99 and lq <= lp * 1.01:
                    wins += 1
        return wins, total

    wins, total = benchmark.pedantic(check, rounds=1, iterations=1)
    assert wins == total


def test_same_workload_latency_ordering(benchmark, curves):
    """Under the same workload, Klotski finishes sooner than FlexGen."""

    def check():
        for by_system in curves.values():
            k = dict(zip(BATCH_SIZES, by_system["klotski"]))
            f = dict(zip(BATCH_SIZES, by_system["flexgen"]))
            for bs in BATCH_SIZES:
                if bs in k and bs in f:
                    assert k[bs][1] <= f[bs][1] * 1.01
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
