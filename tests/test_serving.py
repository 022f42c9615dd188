"""Serving layer: request streams, batching, SLA metrics."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, Replica, RoundRobinRouter
from repro.core.engine import KlotskiSystem
from repro.errors import ConfigValidationError
from repro.routing.workload import Workload
from repro.serving import (
    ArrivalConfig,
    BurstyConfig,
    Request,
    assign_hot_experts,
    generate_bursty,
    generate_requests,
    replay_trace,
)


class TestRequestGeneration:
    def test_count_and_order(self):
        requests = generate_requests(ArrivalConfig(rate_per_s=2.0, seed=1), 20)
        assert len(requests) == 20
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)

    def test_deterministic_per_seed(self):
        a = generate_requests(ArrivalConfig(seed=3), 10)
        b = generate_requests(ArrivalConfig(seed=3), 10)
        assert a == b

    def test_rate_controls_density(self):
        slow = generate_requests(ArrivalConfig(rate_per_s=0.1, seed=1), 50)
        fast = generate_requests(ArrivalConfig(rate_per_s=10.0, seed=1), 50)
        assert fast[-1].arrival_s < slow[-1].arrival_s

    def test_prompt_lengths_within_spread(self):
        cfg = ArrivalConfig(prompt_len_mean=100, prompt_len_spread=0.2, seed=2)
        for request in generate_requests(cfg, 40):
            assert 80 <= request.prompt_len <= 120

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalConfig(rate_per_s=0)
        with pytest.raises(ValueError):
            ArrivalConfig(prompt_len_spread=1.5)


class TestBatchingConfig:
    """The group shape: the scenario's workload and the fleet's deadline.

    The class keeps its historical test ids; the ``BatchingConfig`` it
    once covered is gone (``Workload`` + ``ClusterConfig.max_wait_s``).
    """

    def test_capacity(self, small_scenario):
        shaped = small_scenario.with_workload(Workload(8, 4, 32, 4))
        replica = Replica(0, shaped, KlotskiSystem())
        assert replica.batch_size == 8
        assert replica.group_capacity == 32

    def test_validation(self, small_scenario):
        with pytest.raises(ValueError):
            Workload(0, 4, 32, 4)
        replica = Replica(0, small_scenario, KlotskiSystem())
        with pytest.raises(ConfigValidationError, match="max_wait_s"):
            ClusterSimulator(
                [replica], RoundRobinRouter(), ClusterConfig(max_wait_s=0)
            )


GROUP_BATCHES = 2
MAX_WAIT_S = 30.0


def serve(scenario, requests, group_batches=GROUP_BATCHES, max_wait_s=MAX_WAIT_S):
    """Serve ``requests`` on one machine: a one-replica group fleet.

    The replica serves groups of ``batch_size × group_batches`` requests
    (the scenario's batch size). The unbucketed prompt quantum and
    unpartitioned residency make it time every group shape exactly as
    the scenario's system runs it, with its own placement deciding
    expert residency.
    """
    shaped = scenario.with_workload(scenario.workload.with_batches(group_batches))
    replica = Replica(0, shaped, KlotskiSystem(), prompt_quantum=1)
    simulator = ClusterSimulator(
        [replica],
        RoundRobinRouter(),
        ClusterConfig(partition_experts=False, max_wait_s=max_wait_s),
    )
    return simulator.run(requests)


class TestServer:
    """Single-machine serving: group formation on a one-replica fleet."""

    def test_all_requests_complete(self, small_scenario):
        requests = generate_requests(
            ArrivalConfig(rate_per_s=1.0, prompt_len_mean=32, gen_len=4, seed=1), 12
        )
        report = serve(small_scenario, requests)
        assert len(report.records) == 12
        assert report.makespan_s > 0
        assert report.throughput > 0

    def test_completion_after_arrival_and_dispatch(self, small_scenario):
        requests = generate_requests(
            ArrivalConfig(rate_per_s=2.0, prompt_len_mean=32, gen_len=4, seed=2), 10
        )
        report = serve(small_scenario, requests)
        for record in report.records:
            assert record.start_s >= record.dispatch_s >= record.request.arrival_s
            assert record.completion_s > record.start_s
            assert record.latency_s >= record.queueing_s

    def test_machine_never_double_booked(self, small_scenario):
        requests = generate_requests(
            ArrivalConfig(rate_per_s=5.0, prompt_len_mean=32, gen_len=4, seed=3), 16
        )
        report = serve(small_scenario, requests)
        windows = sorted({(r.start_s, r.completion_s) for r in report.records})
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert s2 >= e1 - 1e-9

    def test_percentiles_ordered(self, small_scenario):
        requests = generate_requests(
            ArrivalConfig(rate_per_s=3.0, prompt_len_mean=32, gen_len=4, seed=4), 20
        )
        report = serve(small_scenario, requests)
        assert report.percentile_latency(50) <= report.percentile_latency(95)
        assert "tok/s" in report.summary()

    def test_larger_groups_raise_throughput(self, small_scenario):
        """The core trade-off: bigger batch groups amortize weight I/O."""
        requests = generate_requests(
            ArrivalConfig(rate_per_s=50.0, prompt_len_mean=32, gen_len=4, seed=5), 24
        )
        small = serve(small_scenario, requests, group_batches=1, max_wait_s=60.0)
        large = serve(small_scenario, requests, group_batches=6, max_wait_s=60.0)
        assert large.throughput > small.throughput

    def test_empty_stream(self, small_scenario):
        report = serve(small_scenario, [])
        assert report.records == []
        assert report.throughput == 0.0

    def test_partial_group_dispatches_at_deadline(self, small_scenario):
        """A lone partial group fires at oldest.arrival + max_wait_s even
        when the next arrival is far in the future (regression: dispatch
        used to wait for the next arrival to advance the clock)."""
        requests = [
            Request(0, 0.0, 32, 4),
            Request(1, 1.0, 32, 4),
            Request(2, 500.0, 32, 4),
        ]
        report = serve(small_scenario, requests)
        by_id = {r.request.request_id: r for r in report.records}
        assert by_id[0].start_s == pytest.approx(MAX_WAIT_S)
        assert by_id[1].start_s == pytest.approx(MAX_WAIT_S)
        # the late request forms its own group at its own deadline
        assert by_id[2].start_s == pytest.approx(500.0 + MAX_WAIT_S)

    def test_full_group_dispatches_at_fill_time(self, small_scenario):
        capacity = small_scenario.workload.batch_size * GROUP_BATCHES
        requests = [Request(i, float(i), 32, 4) for i in range(capacity)]
        report = serve(small_scenario, requests)
        fill_time = float(capacity - 1)
        assert all(r.start_s == pytest.approx(fill_time) for r in report.records)

    def test_server_stamps_ttft_below_latency(self, small_scenario):
        requests = generate_requests(
            ArrivalConfig(rate_per_s=4.0, prompt_len_mean=32, gen_len=4, seed=2),
            12,
        )
        report = serve(small_scenario, requests)
        for r in report.records:
            assert 0.0 < r.ttft_s <= r.latency_s


class TestServingReportEdges:
    """One-record edges of the report single-machine serving returns."""

    def _one_record_report(self):
        from repro.cluster.report import ClusterReport, make_record

        request = Request(request_id=0, arrival_s=0.0, prompt_len=32, gen_len=4)
        return ClusterReport(
            router="round-robin",
            slo_s=60.0,
            records=[make_record(request, 0, 1.0, 1.0, 3.0, 0.0)],
            makespan_s=3.0,
        )

    def test_single_request(self):
        report = self._one_record_report()
        assert report.mean_latency_s == pytest.approx(3.0)
        assert report.throughput == pytest.approx(4 / 3.0)

    def test_percentile_on_one_sample(self):
        report = self._one_record_report()
        for q in (0, 50, 95, 99, 100):
            assert report.percentile_latency(q) == pytest.approx(3.0)


class TestBurstyArrivals:
    def test_count_order_determinism(self):
        config = BurstyConfig(seed=5)
        a = generate_bursty(config, 30)
        b = generate_bursty(config, 30)
        assert a == b
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)
        assert len(a) == 30

    def test_burstier_than_poisson(self):
        """MMPP inter-arrival gaps have a higher coefficient of variation."""
        bursty = generate_bursty(
            BurstyConfig(base_rate_per_s=0.2, burst_rate_per_s=20.0, seed=1), 300
        )
        poisson = generate_requests(ArrivalConfig(rate_per_s=1.0, seed=1), 300)

        def cv(requests):
            gaps = np.diff([r.arrival_s for r in requests])
            return gaps.std() / gaps.mean()

        assert cv(bursty) > cv(poisson)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyConfig(base_rate_per_s=0)
        with pytest.raises(ValueError):
            BurstyConfig(switch_prob=0)

    def test_empty_and_single_counts(self):
        # Edge cases of the vectorized sampler: the prefix-XOR state
        # chain slices [:-1]/[1:], which must degrade cleanly at 0 and 1.
        assert generate_bursty(BurstyConfig(seed=2), 0) == []
        (only,) = generate_bursty(BurstyConfig(seed=2), 1)
        assert only.request_id == 0
        assert only.arrival_s > 0.0

    def test_first_arrival_starts_calm(self):
        """State before the first arrival is always the calm state."""
        config = BurstyConfig(
            base_rate_per_s=1.0, burst_rate_per_s=1000.0, switch_prob=0.999,
            seed=9,
        )
        first = generate_bursty(config, 2)[0]
        # Calm-rate gap: exponential(1)/1.0 — overwhelmingly larger than
        # any burst-rate gap (1/1000 scale).
        assert first.arrival_s > 1e-3


class TestTraceReplay:
    def test_from_records(self):
        requests = replay_trace(
            [
                {"arrival_s": 2.0, "prompt_len": 64, "gen_len": 8},
                {"arrival_s": 0.5, "prompt_len": 32, "gen_len": 4,
                 "hot_expert": 3},
                (1.0, 48, 6),
            ]
        )
        assert [r.arrival_s for r in requests] == [0.5, 1.0, 2.0]
        assert [r.request_id for r in requests] == [0, 1, 2]
        assert requests[0].hot_expert == 3
        assert requests[1].hot_expert is None

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            '[{"arrival_s": 0.0, "prompt_len": 16, "gen_len": 2},'
            ' {"arrival_s": 1.5, "prompt_len": 24, "gen_len": 2}]'
        )
        requests = replay_trace(path)
        assert len(requests) == 2
        assert requests[1].arrival_s == 1.5


class TestHotExpertTagging:
    def test_deterministic_and_in_range(self):
        requests = generate_requests(ArrivalConfig(seed=1), 40)
        a = assign_hot_experts(requests, num_experts=8, skew=1.2, seed=3)
        b = assign_hot_experts(requests, num_experts=8, skew=1.2, seed=3)
        assert a == b
        assert all(0 <= r.hot_expert < 8 for r in a)

    def test_skew_favours_low_ranks(self):
        requests = generate_requests(ArrivalConfig(seed=1), 400)
        tagged = assign_hot_experts(requests, num_experts=8, skew=1.5, seed=0)
        counts = np.bincount([r.hot_expert for r in tagged], minlength=8)
        assert counts[0] == counts.max()
