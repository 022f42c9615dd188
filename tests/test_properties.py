"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression.quantization import QuantConfig, dequantize, quantize
from repro.core.ordering import ordered_active_experts
from repro.errors import OutOfMemoryError
from repro.model.layers import softmax
from repro.model.moe import top_k_gate
from repro.routing.popularity import zipf_weights
from repro.routing.trace import expert_token_counts, hot_experts
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.schedule import GPU, H2D, MemEffect, Schedule
from tests.test_executor import make_hw

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestQuantizationProperties:
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
               elements=finite_floats)
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_error_bounded_by_group_range(self, w):
        """Dequantized values stay within half a quantization step of the
        original, for every element."""
        cfg = QuantConfig(bits=4, group_size=8, hqq_iters=0)
        recon = dequantize(quantize(w, cfg))
        flat = w.reshape(-1)
        pad = (-flat.size) % cfg.group_size
        padded = np.concatenate([flat, np.zeros(pad)])
        groups = padded.reshape(-1, cfg.group_size)
        steps = (groups.max(axis=1) - groups.min(axis=1)) / (cfg.levels - 1)
        tol = np.repeat(np.maximum(steps, 1e-12), cfg.group_size)[: flat.size]
        assert np.all(np.abs(recon.reshape(-1) - flat) <= tol * 0.51 + 1e-9)

    @given(
        arrays(np.float64, st.tuples(st.integers(2, 10), st.integers(2, 10)),
               elements=finite_floats)
    )
    @settings(max_examples=20, deadline=None)
    def test_shape_always_preserved(self, w):
        assert dequantize(quantize(w)).shape == w.shape


class TestGateProperties:
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(2, 8)),
               elements=finite_floats),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_topk_gate_invariants(self, logits, k):
        k = min(k, logits.shape[1])
        experts, weights = top_k_gate(logits, k)
        # Weights are a distribution over k distinct in-range experts.
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.all(weights >= 0)
        assert experts.min() >= 0 and experts.max() < logits.shape[1]
        for row in experts:
            assert len(set(row.tolist())) == k

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(2, 6)),
               elements=finite_floats)
    )
    @settings(max_examples=30, deadline=None)
    def test_softmax_is_distribution(self, x):
        out = softmax(x)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0)


class TestMemoryPoolProperties:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 100)), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_used_never_negative_nor_above_capacity(self, ops):
        """The executor's memory replay either stops at the first
        allocation past capacity or keeps every level within it."""
        s = Schedule()
        live = []
        for is_alloc, size in ops:
            if is_alloc:
                tid = f"t{len(s)}"
                s.compute(1.0, tid, allocs=[MemEffect("vram", tid, size)])
                live.append((tid, size))
            elif live:
                tid, size = live.pop()
                s.compute(1.0, "free", frees=[MemEffect("vram", tid, size)])
        for engine in ("compiled", "legacy"):
            executor = Executor(make_hw(), ExecutorConfig(engine=engine))
            try:
                t = executor.run(s, capacities={"vram": 500})
            except OutOfMemoryError as exc:
                assert exc.requested > exc.available
                continue
            levels = [level for _, level in t.memory_usage.get("vram", [])]
            assert all(0 <= level <= 500 for level in levels)
            assert t.memory_peak.get("vram", 0) == max(levels, default=0)


class TestExecutorProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from([GPU, H2D]), st.floats(0.0, 5.0),
                      st.lists(st.integers(0, 50), max_size=3)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_timeline_invariants(self, spec):
        s = Schedule()
        for resource, duration, deps in spec:
            valid = [d for d in deps if d < len(s)]
            s.add(resource, duration, "op", deps=valid)
        t = Executor(make_hw()).run(s)
        # Makespan bounds: at least the per-resource busy time, at most the
        # serialized sum of all durations.
        total = sum(op.duration for op in s)
        assert t.makespan <= total + 1e-9
        for resource, busy in t.busy_time.items():
            assert t.makespan >= busy - 1e-9
        # Deps respected and ops never overlap on one resource.
        for e in t.executed:
            for d in e.op.deps:
                assert t.executed[d].end <= e.start + 1e-9
        for resource in (GPU, H2D):
            ops = t.ops_on(resource)
            for a, b in zip(ops, ops[1:]):
                assert a.end <= b.start + 1e-9


class TestRoutingProperties:
    @given(st.integers(1, 64), st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_zipf_always_distribution(self, n, skew):
        w = zipf_weights(n, skew)
        assert w.shape == (n,)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0)

    @given(
        arrays(np.int64, st.tuples(st.integers(0, 30), st.integers(1, 3)),
               elements=st.integers(0, 7)),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_and_hot_experts_consistent(self, assignments, k):
        counts = expert_token_counts(assignments, 8)
        assert counts.sum() == assignments.size
        hot = hot_experts(counts, k)
        assert len(hot) == min(k, 8)
        # Hot experts have counts >= any non-hot expert.
        if hot:
            floor = min(counts[e] for e in hot)
            others = [counts[e] for e in range(8) if e not in hot]
            assert all(floor >= c for c in others)


class TestOrderingProperties:
    @given(
        arrays(np.int64, st.integers(2, 10), elements=st.integers(0, 50)),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_order_covers_exactly_active_experts(self, counts, data):
        n = len(counts)
        prefetched = data.draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=n)
        )
        order = ordered_active_experts(counts, prefetched)
        assert sorted(order) == [int(e) for e in np.nonzero(counts)[0]]
        # Prefetched experts always precede cold ones, which keep their
        # ascending-id transfer order.
        hot = [e in prefetched for e in order]
        assert hot == sorted(hot, reverse=True)
        cold = [e for e in order if e not in prefetched]
        assert cold == sorted(cold)
