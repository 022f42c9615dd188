"""Serve one request stream across a fleet of Klotski replicas.

Compares the three router policies of ``repro.cluster`` on a saturated,
skewed-popularity stream: round-robin, least-outstanding, and the
expert-affinity router that keeps hot-expert traffic on replicas whose
VRAM already holds those experts (cutting per-group expert fetches).

Usage::

    python examples/cluster_demo.py [num_replicas]
"""

import sys

from repro import Workload
from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster, make_router
from repro.hardware.spec import ENV1
from repro.model.config import MIXTRAL_8X7B
from repro.serving import ArrivalConfig, assign_hot_experts, generate_requests


def main() -> None:
    n_replicas = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    # Groups of 8 × 2 requests; 512-token prompts and 8 generated tokens
    # calibrate each replica's residency.
    workload = Workload(8, 2, prompt_len=512, gen_len=8)
    requests = generate_requests(
        ArrivalConfig(
            rate_per_s=12.0, prompt_len_mean=512, prompt_len_spread=0.0,
            gen_len=8, seed=3,
        ),
        count=128,
    )
    requests = assign_hot_experts(
        requests, MIXTRAL_8X7B.num_experts, skew=1.2, seed=4
    )
    print(
        f"routing 128 requests (12 req/s, Zipf-skewed hot experts) across "
        f"{n_replicas} Klotski replicas on {ENV1.name}\n"
    )
    print(f"{'router':<20} {'tok/s':>7} {'goodput':>8} {'p99 lat':>8} {'misses':>7}")
    for name in ("round-robin", "least-outstanding", "expert-affinity"):
        replicas = build_cluster(MIXTRAL_8X7B, [ENV1] * n_replicas, workload)
        simulator = ClusterSimulator(
            replicas, make_router(name), ClusterConfig(slo_s=240.0)
        )
        report = simulator.run(requests)
        print(
            f"{name:<20} {report.throughput:>7.2f} {report.goodput:>8.2f} "
            f"{report.percentile_latency(99):>7.1f}s {report.expert_misses:>7}"
        )
    print(
        "\nThe expert-affinity router keeps hot-expert requests on the "
        "replicas holding those weights, trading expert fetch misses for "
        "locality without sacrificing load balance (slack=0)."
    )


if __name__ == "__main__":
    main()
