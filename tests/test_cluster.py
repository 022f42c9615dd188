"""Cluster subsystem: events, routers, simulator invariants, reports."""

import json

import pytest

from repro.cluster import (
    ARRIVAL,
    COMPLETION,
    DEADLINE,
    ClusterConfig,
    ClusterSimulator,
    EventQueue,
    ExpertAffinityRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    build_cluster,
    make_router,
)
from repro.errors import ConfigValidationError
from repro.routing.workload import Workload
from repro.serving import (
    ArrivalConfig,
    Request,
    assign_hot_experts,
    generate_requests,
)

WORKLOAD = Workload(4, 2, prompt_len=32, gen_len=4)  # groups of 4 × 2
MAX_WAIT_S = 20.0
ROUTER_NAMES = ["round-robin", "least-outstanding", "expert-affinity"]


def make_cluster(small_mixtral, hw, n_replicas=3, router="round-robin", **config):
    replicas = build_cluster(
        small_mixtral, [hw] * n_replicas, WORKLOAD, prompt_quantum=16
    )
    config.setdefault("slo_s", 60.0)
    config.setdefault("max_wait_s", MAX_WAIT_S)
    return ClusterSimulator(
        replicas, make_router(router), ClusterConfig(**config)
    )


def skewed_stream(small_mixtral, count=36, rate=8.0, seed=1):
    requests = generate_requests(
        ArrivalConfig(rate_per_s=rate, prompt_len_mean=32, gen_len=4, seed=seed),
        count,
    )
    return assign_hot_experts(
        requests, small_mixtral.num_experts, skew=1.2, seed=seed + 1
    )


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(3.0, ARRIVAL, "c")
        q.push(1.0, ARRIVAL, "a")
        q.push(2.0, ARRIVAL, "b")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        for payload in ("first", "second", "third"):
            q.push(5.0, ARRIVAL, payload)
        assert [q.pop().payload for _ in range(3)] == ["first", "second", "third"]

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(0.0, ARRIVAL)
        assert q and len(q) == 1

    def test_kind_priority_at_equal_time(self):
        # At one instant: completions release load first, arrivals may
        # fill a group next, deadlines fire last — push order must not
        # matter.
        q = EventQueue()
        q.push(5.0, ARRIVAL, "arrival")
        q.push(5.0, DEADLINE, "deadline")
        q.push(5.0, COMPLETION, "completion")
        assert [q.pop().payload for _ in range(3)] == [
            "completion", "arrival", "deadline",
        ]

    def test_colliding_timestamps_order_by_time_kind_seq(self):
        q = EventQueue()
        q.push(2.0, DEADLINE, "d2")
        q.push(1.0, ARRIVAL, "a1")
        q.push(2.0, COMPLETION, "c2")
        q.push(1.0, COMPLETION, "c1")
        q.push(2.0, ARRIVAL, "a2-first")
        q.push(2.0, ARRIVAL, "a2-second")
        assert [q.pop().payload for _ in range(6)] == [
            "c1", "a1", "c2", "a2-first", "a2-second", "d2",
        ]


class TestCollidingTimestamps:
    """Simulator-level regression for the (time, kind, seq) heap key.

    When an arrival lands at *exactly* a completion's timestamp, the
    completion must be processed first so the freed replica is visible
    to load-aware routing. Under the old FIFO tie-break the arrival
    (pushed up front, lower seq) won the tie and routed to a stale view
    of the fleet.
    """

    def _fleet(self, small_mixtral, hw):
        replicas = build_cluster(
            small_mixtral,
            [hw, hw],
            Workload(1, 1, prompt_len=32, gen_len=4),
            prompt_quantum=16,
        )
        return ClusterSimulator(
            replicas,
            make_router("least-outstanding"),
            ClusterConfig(slo_s=60.0, max_wait_s=MAX_WAIT_S),
        )

    def test_completion_frees_replica_before_colliding_arrival(
        self, small_mixtral, hw
    ):
        # Capacity-1 groups dispatch on arrival: request 0 (long prompt)
        # occupies replica 0, request 1 (short) occupies replica 1.
        long_req = Request(0, 0.0, 512, 4)
        short_req = Request(1, 0.0, 32, 4)
        probe = self._fleet(small_mixtral, hw).run([long_req, short_req])
        done = {r.request.request_id: r.completion_s for r in probe.records}
        assert done[1] < done[0], "short request should finish first"

        # Request 2 arrives at exactly replica 1's completion instant.
        # The completion event must process first, so least-outstanding
        # sees replica 1 idle (0 outstanding) vs replica 0 busy (1).
        collider = Request(2, done[1], 32, 4)
        report = self._fleet(small_mixtral, hw).run(
            [long_req, short_req, collider]
        )
        routed = {r.request.request_id: r.replica_id for r in report.records}
        assert routed[2] == 1


class TestRouters:
    def test_registry_and_unknown(self):
        assert isinstance(make_router("round-robin"), RoundRobinRouter)
        assert isinstance(make_router("least-outstanding"), LeastOutstandingRouter)
        assert isinstance(make_router("expert-affinity"), ExpertAffinityRouter)
        with pytest.raises(ValueError, match="unknown router"):
            make_router("nope")

    def test_round_robin_rotates(self, small_mixtral, hw):
        sim = make_cluster(small_mixtral, hw, n_replicas=3)
        requests = skewed_stream(small_mixtral, count=9, rate=0.1)
        report = sim.run(requests)
        per_replica = [s.requests for s in report.replicas]
        assert per_replica == [3, 3, 3]

    def test_least_outstanding_balances(self, small_mixtral, hw):
        sim = make_cluster(small_mixtral, hw, router="least-outstanding")
        report = sim.run(skewed_stream(small_mixtral, count=30, rate=20.0))
        counts = [s.requests for s in report.replicas]
        assert max(counts) - min(counts) <= sim.replicas[0].group_capacity

    def test_affinity_reduces_misses(self, small_mixtral, hw):
        requests = skewed_stream(small_mixtral, count=48, rate=20.0)
        rr = make_cluster(small_mixtral, hw, router="round-robin").run(requests)
        affinity = make_cluster(small_mixtral, hw, router="expert-affinity").run(
            requests
        )
        assert affinity.expert_misses < rr.expert_misses

    def test_affinity_untagged_falls_back(self, small_mixtral, hw):
        sim = make_cluster(small_mixtral, hw, router="expert-affinity")
        requests = generate_requests(
            ArrivalConfig(rate_per_s=5.0, prompt_len_mean=32, gen_len=4, seed=2),
            12,
        )
        report = sim.run(requests)  # hot_expert is None on every request
        assert len(report.records) == 12


class TestSimulatorInvariants:
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_conservation(self, small_mixtral, hw, router):
        """Every request completes exactly once, on exactly one replica."""
        requests = skewed_stream(small_mixtral, count=36)
        report = make_cluster(small_mixtral, hw, router=router).run(requests)
        completed_ids = sorted(r.request.request_id for r in report.records)
        assert completed_ids == sorted(r.request_id for r in requests)
        assert sum(s.requests for s in report.replicas) == len(requests)

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_fifo_per_replica(self, small_mixtral, hw, router):
        """Groups on one replica never reorder across arrival order."""
        requests = skewed_stream(small_mixtral, count=36)
        sim = make_cluster(small_mixtral, hw, router=router)
        sim.run(requests)
        for replica in sim.replicas:
            groups = sorted(replica.groups, key=lambda g: g.dispatch_s)
            for earlier, later in zip(groups, groups[1:]):
                assert max(r.arrival_s for r in earlier.requests) <= min(
                    r.arrival_s for r in later.requests
                )

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_causality(self, small_mixtral, hw, router):
        requests = skewed_stream(small_mixtral, count=24)
        report = make_cluster(small_mixtral, hw, router=router).run(requests)
        for record in report.records:
            assert record.start_s >= record.request.arrival_s
            assert record.completion_s > record.start_s
            assert record.ttft_s <= record.latency_s

    def test_replica_never_double_booked(self, small_mixtral, hw):
        sim = make_cluster(small_mixtral, hw, router="least-outstanding")
        sim.run(skewed_stream(small_mixtral, count=36, rate=30.0))
        for replica in sim.replicas:
            windows = sorted((g.start_s, g.completion_s) for g in replica.groups)
            for (_, end1), (start2, _) in zip(windows, windows[1:]):
                assert start2 >= end1 - 1e-9

    def test_partial_group_dispatches_at_deadline(self, small_mixtral, hw):
        """The event loop fires the wait bound without needing an arrival."""
        sim = make_cluster(small_mixtral, hw, n_replicas=1)
        requests = generate_requests(
            ArrivalConfig(rate_per_s=100.0, prompt_len_mean=32, gen_len=4, seed=0),
            2,  # far below group capacity: only the deadline can dispatch
        )
        report = sim.run(requests)
        assert len(report.records) == 2
        oldest = min(r.arrival_s for r in requests)
        for record in report.records:
            assert record.dispatch_s == pytest.approx(oldest + MAX_WAIT_S)


class TestDeterminism:
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_reproducible_for_fixed_seed(self, small_mixtral, hw, router):
        """Byte-identical reports for a fixed seed, any router policy."""
        def run_once():
            requests = skewed_stream(small_mixtral, count=30, seed=7)
            report = make_cluster(small_mixtral, hw, router=router).run(requests)
            return json.dumps(report.to_dict(), sort_keys=True)

        assert run_once() == run_once()

    def test_seed_changes_output(self, small_mixtral, hw):
        a = make_cluster(small_mixtral, hw).run(skewed_stream(small_mixtral, seed=1))
        b = make_cluster(small_mixtral, hw).run(skewed_stream(small_mixtral, seed=2))
        assert a.to_dict() != b.to_dict()


class TestResidency:
    def test_partition_covers_hot_experts_disjointly(self, small_mixtral, hw):
        sim = make_cluster(small_mixtral, hw, n_replicas=4)
        sets = [r.resident_experts for r in sim.replicas]
        assert all(s for s in sets)
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                assert not (a & b)
        # the hottest expert (rank 0) is resident somewhere
        assert any(0 in s for s in sets)

    def test_zero_slots_derive_like_the_default(self, small_mixtral, hw):
        # 0 means "derive from placement" everywhere, as in repro.api.
        explicit = make_cluster(
            small_mixtral, hw, n_replicas=2, expert_slots_per_replica=0
        )
        default = make_cluster(small_mixtral, hw, n_replicas=2)
        sets = [r.resident_experts for r in explicit.replicas]
        assert sets == [r.resident_experts for r in default.replicas]
        assert all(sets)

    def test_explicit_slots(self, small_mixtral, hw):
        sim = make_cluster(
            small_mixtral, hw, n_replicas=2, expert_slots_per_replica=3
        )
        assert all(len(r.resident_experts) == 3 for r in sim.replicas)

    def test_unpartitioned_uses_placement(self, small_mixtral, hw):
        sim = make_cluster(small_mixtral, hw, n_replicas=2, partition_experts=False)
        # identical replicas derive identical residency from the planner
        assert sim.replicas[0].resident_experts == sim.replicas[1].resident_experts


class TestClusterReport:
    def test_empty_stream(self, small_mixtral, hw):
        report = make_cluster(small_mixtral, hw).run([])
        assert report.records == []
        assert report.makespan_s == 0.0
        assert report.throughput == 0.0
        assert report.goodput == 0.0
        assert report.slo_attainment == 0.0
        assert report.cost_per_token() == 0.0
        assert report.percentile_latency(99) == 0.0
        assert "0 requests" in report.summary()
        assert report.to_dict()["num_requests"] == 0

    def test_goodput_counts_only_slo_requests(self, small_mixtral, hw):
        requests = skewed_stream(small_mixtral, count=36, rate=30.0)
        tight = make_cluster(small_mixtral, hw, slo_s=1e-3).run(requests)
        loose = make_cluster(small_mixtral, hw, slo_s=1e6).run(requests)
        assert tight.goodput == 0.0
        assert tight.slo_attainment == 0.0
        assert loose.goodput == pytest.approx(loose.throughput)
        assert loose.slo_attainment == 1.0

    def test_percentiles_ordered(self, small_mixtral, hw):
        report = make_cluster(small_mixtral, hw).run(skewed_stream(small_mixtral))
        assert (
            report.percentile_latency(50)
            <= report.percentile_latency(95)
            <= report.percentile_latency(99)
        )
        assert report.percentile_ttft(50) <= report.percentile_ttft(95)

    def test_utilization_and_cost(self, small_mixtral, hw):
        report = make_cluster(small_mixtral, hw).run(skewed_stream(small_mixtral))
        for stats in report.replicas:
            assert 0.0 <= stats.utilization(report.makespan_s) <= 1.0
        assert report.cost_usd() > 0
        assert report.cost_per_token() > 0

    def test_json_round_trip(self, small_mixtral, hw):
        report = make_cluster(small_mixtral, hw).run(
            skewed_stream(small_mixtral, count=12)
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["num_replicas"] == 3
        assert len(payload["requests"]) == 12
        assert len(payload["replicas"]) == 3

    def test_metric_cache_keyed_on_dirty_tick(self):
        # Regression: the metric cache was keyed only on len(records), so
        # a count-preserving in-place mutation served stale percentiles.
        from repro.cluster.report import ClusterReport, make_record

        request = Request(request_id=0, arrival_s=0.0, prompt_len=32, gen_len=4)
        record = make_record(request, 0, 1.0, 1.0, 3.0, 1.0)
        report = ClusterReport(
            router="round-robin", slo_s=60.0, records=[record], makespan_s=3.0
        )
        assert report.mean_latency_s == pytest.approx(3.0)
        first = report.latencies()
        assert report.latencies() is first  # cached across calls
        report.records[0] = make_record(request, 0, 1.0, 1.0, 7.0, 1.0)
        report.invalidate_metrics()
        assert report.latencies() is not first
        assert report.mean_latency_s == pytest.approx(7.0)

    def test_metric_cache_refreshes_on_append(self):
        from repro.cluster.report import ClusterReport, make_record

        request = Request(request_id=0, arrival_s=0.0, prompt_len=32, gen_len=4)
        report = ClusterReport(
            router="round-robin",
            slo_s=60.0,
            records=[make_record(request, 0, 1.0, 1.0, 3.0, 1.0)],
            makespan_s=3.0,
        )
        assert report.mean_latency_s == pytest.approx(3.0)
        other = Request(request_id=1, arrival_s=0.0, prompt_len=32, gen_len=4)
        report.records.append(make_record(other, 0, 1.0, 1.0, 5.0, 1.0))
        assert report.mean_latency_s == pytest.approx(4.0)

    def test_ttft_metrics(self):
        from repro.cluster.report import ClusterReport, make_record

        records = [
            make_record(Request(i, t, 32, 4), 0, t + 1.0, t + 1.0, t + 4.0, 1.5)
            for i, t in enumerate((0.0, 1.0, 2.0))
        ]
        report = ClusterReport(
            router="round-robin", slo_s=60.0, records=records, makespan_s=7.0
        )
        assert report.mean_ttft_s == pytest.approx(1.5)
        assert report.percentile_ttft(95) == pytest.approx(1.5)
        assert "TTFT mean 1.5 s / p95 1.5 s" in report.summary()


class TestQueueDepthStride:
    def _run(self, small_mixtral, hw, stride):
        replicas = build_cluster(
            small_mixtral,
            [hw] * 2,
            WORKLOAD,
            prompt_quantum=16,
            timeline_stride=stride,
        )
        sim = ClusterSimulator(
            replicas,
            make_router("round-robin"),
            ClusterConfig(slo_s=60.0, max_wait_s=MAX_WAIT_S),
        )
        return sim.run(skewed_stream(small_mixtral, count=24))

    def test_default_stride_keeps_every_sample(self, small_mixtral, hw):
        base = self._run(small_mixtral, hw, 1)
        explicit = self._run(small_mixtral, hw, 1)
        assert [s.queue_depth_timeline for s in base.replicas] == [
            s.queue_depth_timeline for s in explicit.replicas
        ]
        assert all(s.queue_depth_timeline for s in base.replicas)

    def test_stride_bounds_timeline_without_changing_results(
        self, small_mixtral, hw
    ):
        dense = self._run(small_mixtral, hw, 1)
        sparse = self._run(small_mixtral, hw, 3)
        # Decimation touches telemetry only: records are identical.
        assert [r.request.request_id for r in sparse.records] == [
            r.request.request_id for r in dense.records
        ]
        assert [r.completion_s for r in sparse.records] == [
            r.completion_s for r in dense.records
        ]
        for d, s in zip(dense.replicas, sparse.replicas):
            assert len(s.queue_depth_timeline) < len(d.queue_depth_timeline)
            # Kept samples are every 3rd offered one, starting at the first.
            assert s.queue_depth_timeline == d.queue_depth_timeline[::3]

    def test_stride_identical_across_engines(self, small_mixtral, hw):
        requests = skewed_stream(small_mixtral, count=24)
        reports = []
        for engine in ("serial", "batched"):
            replicas = build_cluster(
                small_mixtral,
                [hw] * 2,
                WORKLOAD,
                prompt_quantum=16,
                timeline_stride=2,
            )
            sim = ClusterSimulator(
                replicas,
                make_router("round-robin"),
                ClusterConfig(slo_s=60.0, max_wait_s=MAX_WAIT_S),
            )
            reports.append(sim.run(requests, engine=engine).to_dict())
        assert reports[0] == reports[1]


class TestHeterogeneousFleet:
    def test_mixed_environments(self, small_mixtral, hw):
        import dataclasses

        fast = dataclasses.replace(hw, name="small-env-fast", vram_bytes=2 * hw.vram_bytes)
        replicas = build_cluster(
            small_mixtral,
            [hw, fast],
            WORKLOAD,
            prompt_quantum=16,
        )
        sim = ClusterSimulator(
            replicas,
            make_router("least-outstanding"),
            ClusterConfig(max_wait_s=MAX_WAIT_S),
        )
        report = sim.run(skewed_stream(small_mixtral, count=24))
        assert len(report.records) == 24
        assert {s.hardware for s in report.replicas} == {
            "small-env", "small-env-fast",
        }

    def test_validation(self, small_mixtral, hw):
        with pytest.raises(ValueError):
            build_cluster(small_mixtral, [], WORKLOAD)
        with pytest.raises(ValueError):
            ClusterSimulator([], make_router("round-robin"))
        with pytest.raises(ConfigValidationError, match="slo_s"):
            make_cluster(small_mixtral, hw, slo_s=0)
