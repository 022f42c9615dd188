"""Serve a Poisson request stream with the expert-aware pipeline.

Shows the serving-side consequence of the paper's throughput/latency
trade-off (Figure 11): larger batch groups amortize weight I/O and raise
sustained throughput, at the price of queueing delay for early requests.

Usage::

    python examples/serving_demo.py [requests_per_second]
"""

import sys

from repro import KlotskiSystem, Scenario, Workload
from repro.cluster import ClusterConfig, ClusterSimulator, Replica, RoundRobinRouter
from repro.hardware.spec import ENV1
from repro.model.config import MIXTRAL_8X7B
from repro.serving import ArrivalConfig, generate_requests


def serve(scenario, requests):
    """One machine is a one-replica group fleet (exact group timings).

    The scenario's workload is the group shape: groups of
    ``batch_size × num_batches`` requests.
    """
    replica = Replica(0, scenario, KlotskiSystem(), prompt_quantum=1)
    simulator = ClusterSimulator(
        [replica],
        RoundRobinRouter(),
        ClusterConfig(partition_experts=False, max_wait_s=30.0),
    )
    return simulator.run(requests)


def main() -> None:
    rate = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    requests = generate_requests(
        ArrivalConfig(
            rate_per_s=rate, prompt_len_mean=512, prompt_len_spread=0.0,
            gen_len=8, seed=1,
        ),
        count=48,
    )
    print(f"serving 48 requests arriving at {rate:.1f} req/s on {ENV1.name}\n")
    print(f"{'group size':>10} {'tok/s':>8} {'mean lat':>10} {'p50':>8} {'p95':>8} {'queue':>8}")
    for group_batches in (1, 2, 4, 8):
        workload = Workload(8, group_batches, prompt_len=512, gen_len=8)
        report = serve(Scenario(MIXTRAL_8X7B, ENV1, workload, seed=0), requests)
        mean_queue = sum(r.queueing_s for r in report.records) / len(report.records)
        print(
            f"{group_batches:>10} {report.throughput:>8.2f} "
            f"{report.mean_latency_s:>9.1f}s {report.percentile_latency(50):>7.1f}s "
            f"{report.percentile_latency(95):>7.1f}s {mean_queue:>7.1f}s"
        )
    print(
        "\nLarger groups raise sustained throughput (weight transfers are "
        "shared by more batches); queueing delay grows while a group fills."
    )


if __name__ == "__main__":
    main()
