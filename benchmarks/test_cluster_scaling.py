"""Extension study: multi-replica cluster serving (``repro.cluster``).

Beyond the paper's single-machine evaluation, these benches measure the
fleet layer every future scaling PR builds on:

* **throughput vs replicas** — how serving throughput scales as identical
  Klotski replicas are added behind a least-outstanding router;
* **router-policy comparison** — round-robin vs least-outstanding vs
  expert-affinity on a saturated, skewed-popularity request stream. The
  affinity router must match or beat round-robin throughput while cutting
  hot-expert fetch misses, validating content-aware routing.
"""

import pytest

from conftest import record_report

from repro.cluster import ClusterConfig, ClusterSimulator, build_cluster, make_router
from repro.hardware.spec import ENV1
from repro.model.config import MIXTRAL_8X7B
from repro.routing.workload import Workload
from repro.serving import ArrivalConfig, assign_hot_experts, generate_requests

GEN_LEN = 8
WORKLOAD = Workload(8, 2, prompt_len=512, gen_len=GEN_LEN)  # groups of 8 × 2


def _skewed_requests(count: int, rate: float, seed: int = 3):
    requests = generate_requests(
        ArrivalConfig(
            rate_per_s=rate, prompt_len_mean=512, prompt_len_spread=0.0,
            gen_len=GEN_LEN, seed=seed,
        ),
        count,
    )
    return assign_hot_experts(
        requests, MIXTRAL_8X7B.num_experts, skew=1.2, seed=seed + 1
    )


def _simulate(n_replicas: int, router: str, requests):
    replicas = build_cluster(MIXTRAL_8X7B, [ENV1] * n_replicas, WORKLOAD)
    simulator = ClusterSimulator(
        replicas, make_router(router), ClusterConfig(slo_s=240.0, max_wait_s=60.0)
    )
    return simulator.run(requests)


class TestThroughputVsReplicas:
    def test_scaling(self, benchmark):
        """Adding replicas raises cluster throughput on a saturating load."""

        def run():
            requests = _skewed_requests(160, rate=16.0)
            return {
                n: _simulate(n, "least-outstanding", requests)
                for n in (1, 2, 4)
            }

        reports = benchmark.pedantic(run, rounds=1, iterations=1)
        lines = [
            f"{n} replica(s): {r.throughput:7.2f} tok/s, goodput "
            f"{r.goodput:7.2f} tok/s, p99 latency "
            f"{r.percentile_latency(99):6.1f} s"
            for n, r in reports.items()
        ]
        record_report("extension_cluster_scaling", "\n".join(lines))
        assert reports[2].throughput > reports[1].throughput
        assert reports[4].throughput > reports[2].throughput

    def test_goodput_improves_with_capacity(self, benchmark):
        def run():
            requests = _skewed_requests(160, rate=16.0)
            return (
                _simulate(1, "least-outstanding", requests),
                _simulate(4, "least-outstanding", requests),
            )

        single, fleet = benchmark.pedantic(run, rounds=1, iterations=1)
        assert fleet.goodput >= single.goodput


class TestRouterPolicies:
    @pytest.fixture(scope="class")
    def reports(self):
        requests = _skewed_requests(128, rate=12.0)
        return {
            name: _simulate(4, name, requests)
            for name in ("round-robin", "least-outstanding", "expert-affinity")
        }

    def test_policy_report(self, benchmark, reports):
        def render():
            return "\n".join(
                f"{name:<18} {r.throughput:7.2f} tok/s, goodput "
                f"{r.goodput:7.2f}, p99 {r.percentile_latency(99):6.1f} s, "
                f"{r.expert_misses:3d} expert misses"
                for name, r in reports.items()
            )

        record_report(
            "extension_router_policies",
            benchmark.pedantic(render, rounds=1, iterations=1),
        )

    def test_affinity_at_least_round_robin_throughput(self, reports):
        """Acceptance criterion: content-aware routing sacrifices nothing."""
        assert (
            reports["expert-affinity"].throughput
            >= reports["round-robin"].throughput
        )

    def test_affinity_cuts_misses(self, reports):
        assert (
            reports["expert-affinity"].expert_misses
            < reports["round-robin"].expert_misses
        )

    def test_all_policies_serve_everything(self, reports):
        for report in reports.values():
            assert len(report.records) == 128
