"""Buffer statistics and the inclusivity ratio."""

import pytest

from repro.core.stats import (
    BufferStats,
    InclusivitySample,
    InclusivityTracker,
    inclusivity_ratio,
)


class TestInclusivityRatio:
    def test_empty_buffers(self):
        assert inclusivity_ratio(set(), set()) == 0.0

    def test_disjoint(self):
        assert inclusivity_ratio({1, 2}, {3, 4}) == 0.0

    def test_fully_inclusive(self):
        assert inclusivity_ratio({1, 2}, {1, 2}) == 1.0

    def test_partial(self):
        # |∩| = 1, |∪| = 3
        assert inclusivity_ratio({1, 2}, {2, 3}) == pytest.approx(1 / 3)

    def test_one_empty(self):
        assert inclusivity_ratio(set(), {1, 2}) == 0.0


class TestInclusivitySample:
    def test_ratio(self):
        sample = InclusivitySample(dram_pages=2, nvm_pages=3, shared_pages=1)
        assert sample.ratio == pytest.approx(1 / 4)

    def test_empty(self):
        assert InclusivitySample(0, 0, 0).ratio == 0.0


class TestInclusivityTracker:
    def test_mean_over_samples(self):
        tracker = InclusivityTracker()
        tracker.sample({1}, {1})        # ratio 1.0
        tracker.sample({1}, {2})        # ratio 0.0
        assert tracker.mean_ratio() == pytest.approx(0.5)
        assert tracker.num_samples == 2

    def test_empty_mean(self):
        assert InclusivityTracker().mean_ratio() == 0.0

    def test_reset(self):
        tracker = InclusivityTracker()
        tracker.sample({1}, {1})
        tracker.reset()
        assert tracker.num_samples == 0


class TestBufferStats:
    def test_operations(self):
        stats = BufferStats(reads=3, writes=2)
        assert stats.operations == 5

    def test_hit_ratios(self):
        stats = BufferStats(reads=8, writes=2, dram_hits=5, ssd_fetches=2)
        assert stats.dram_hit_ratio == pytest.approx(0.5)

    def test_ratios_with_no_ops(self):
        assert BufferStats().dram_hit_ratio == 0.0

    def test_migration_aggregates(self):
        stats = BufferStats(ssd_to_dram=1, ssd_to_nvm=2, nvm_to_dram=3,
                            dram_to_nvm=4, dram_to_ssd=5, nvm_to_ssd=6)
        assert stats.upward_migrations == 6
        assert stats.downward_migrations == 15

    def test_snapshot_is_copy(self):
        stats = BufferStats(reads=1)
        snap = stats.snapshot()
        stats.reads = 10
        assert snap.reads == 1

    def test_delta_since(self):
        stats = BufferStats(reads=10, writes=4)
        baseline = stats.snapshot()
        stats.reads = 15
        delta = stats.delta_since(baseline)
        assert delta.reads == 5
        assert delta.writes == 0

    def test_as_dict(self):
        d = BufferStats(reads=2).as_dict()
        assert d["reads"] == 2
        assert "nvm_to_dram" in d
