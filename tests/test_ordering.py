"""Expert computation ordering (paper §5)."""

import numpy as np

from repro.core.ordering import ordered_active_experts


class TestOrderExperts:
    def test_hot_experts_first_busiest_first(self):
        counts = np.array([5, 30, 0, 10, 20])
        order = ordered_active_experts(counts, prefetched=[1, 3])
        assert order[:2] == [1, 3]  # hot first, busiest (30) before (10)
        assert order[2:] == [0, 4]  # cold in transfer (id) order

    def test_inactive_experts_skipped(self):
        counts = np.array([0, 10, 0, 0])
        assert ordered_active_experts(counts, prefetched=[0, 1]) == [1]

    def test_resident_experts_run_with_hot(self):
        counts = np.array([8, 4, 2, 0])
        order = ordered_active_experts(counts, prefetched=[1], resident={0})
        assert order == [0, 1, 2]  # resident expert 0 busiest, runs first

    def test_unadjusted_order_is_id_ascending(self):
        counts = np.array([5, 30, 0, 10])
        assert ordered_active_experts(counts, prefetched=[3], adjust=False) == [0, 1, 3]

    def test_tie_broken_by_expert_id(self):
        counts = np.array([7, 7, 7])
        assert ordered_active_experts(counts, prefetched=[0, 1, 2]) == [0, 1, 2]

    def test_empty_counts(self):
        assert ordered_active_experts(np.zeros(4, dtype=int), prefetched=[0]) == []


class TestColdTransferOrder:
    """The cold tail: activated experts neither prefetched nor resident,
    in the ascending-id order the builder issues their transfers in."""

    def test_excludes_prefetched_and_resident(self):
        counts = np.array([1, 2, 3, 4])
        order = ordered_active_experts(counts, prefetched=[1], resident={3})
        assert order[2:] == [0, 2]

    def test_excludes_inactive(self):
        counts = np.array([0, 2, 0, 4])
        assert ordered_active_experts(counts, prefetched=[]) == [1, 3]

    def test_everything_covered_means_no_transfers(self):
        counts = np.array([1, 3])
        assert ordered_active_experts(counts, prefetched=[0, 1]) == [1, 0]
