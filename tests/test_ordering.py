"""Expert computation ordering (paper §5)."""

import numpy as np
import pytest

from repro.core.ordering import cold_transfer_order, order_experts


class TestOrderExperts:
    def test_hot_experts_first_busiest_first(self):
        counts = np.array([5, 30, 0, 10, 20])
        order = order_experts(counts, prefetched=[1, 3])
        ids = [w.expert for w in order]
        assert ids[:2] == [1, 3]  # hot first, busiest (30) before (10)
        assert ids[2:] == [0, 4]  # cold in transfer (id) order

    def test_inactive_experts_skipped(self):
        counts = np.array([0, 10, 0, 0])
        order = order_experts(counts, prefetched=[0, 1])
        assert [w.expert for w in order] == [1]

    def test_resident_experts_run_with_hot(self):
        counts = np.array([8, 4, 2, 0])
        order = order_experts(counts, prefetched=[1], resident={0})
        ids = [w.expert for w in order]
        assert ids[:2] == [0, 1]  # resident expert 0 busiest, runs first
        assert order[0].resident and not order[0].prefetched

    def test_unadjusted_order_is_id_ascending(self):
        counts = np.array([5, 30, 0, 10])
        order = order_experts(counts, prefetched=[3], adjust=False)
        assert [w.expert for w in order] == [0, 1, 3]

    def test_scale_applied_to_tokens(self):
        counts = np.array([4, 0])
        order = order_experts(counts, prefetched=[], scale=2.5)
        assert order[0].tokens == pytest.approx(10.0)

    def test_prefetched_flag_set(self):
        counts = np.array([1, 1])
        order = order_experts(counts, prefetched=[1])
        by_id = {w.expert: w for w in order}
        assert by_id[1].prefetched and not by_id[0].prefetched

    def test_tie_broken_by_expert_id(self):
        counts = np.array([7, 7, 7])
        order = order_experts(counts, prefetched=[0, 1, 2])
        assert [w.expert for w in order] == [0, 1, 2]

    def test_empty_counts(self):
        assert order_experts(np.zeros(4, dtype=int), prefetched=[0]) == []


class TestColdTransferOrder:
    def test_excludes_prefetched_and_resident(self):
        counts = np.array([1, 2, 3, 4])
        cold = cold_transfer_order(counts, prefetched=[1], resident={3})
        assert cold == [0, 2]

    def test_excludes_inactive(self):
        counts = np.array([0, 2, 0, 4])
        assert cold_transfer_order(counts, prefetched=[]) == [1, 3]

    def test_everything_covered_means_no_transfers(self):
        counts = np.array([1, 1])
        assert cold_transfer_order(counts, prefetched=[0, 1]) == []
