"""HyMem's NVM admission queue (§6.5)."""

import pytest

from repro.core.admission import AdmissionQueue, recommended_queue_size


class TestQueueSemantics:
    def test_first_consideration_denied(self):
        queue = AdmissionQueue(4)
        assert not queue.should_admit(1)
        assert 1 in queue

    def test_second_consideration_admitted(self):
        queue = AdmissionQueue(4)
        queue.should_admit(1)
        assert queue.should_admit(1)
        assert 1 not in queue

    def test_third_consideration_denied_again(self):
        queue = AdmissionQueue(4)
        queue.should_admit(1)
        queue.should_admit(1)
        assert not queue.should_admit(1)

    def test_capacity_evicts_oldest(self):
        queue = AdmissionQueue(2)
        queue.should_admit(1)
        queue.should_admit(2)
        queue.should_admit(3)  # evicts 1
        assert 1 not in queue
        assert not queue.should_admit(1)  # forgotten: denied again

    def test_len(self):
        queue = AdmissionQueue(4)
        queue.should_admit(1)
        queue.should_admit(2)
        assert len(queue) == 2

    def test_admission_rate(self):
        queue = AdmissionQueue(8)
        for _ in range(2):
            for page in range(4):
                queue.should_admit(page)
        assert queue.admission_rate == pytest.approx(0.5)
        assert queue.considerations == 8
        assert queue.admissions == 4

    def test_empty_rate(self):
        assert AdmissionQueue(1).admission_rate == 0.0

    def test_snapshot_is_consistent_triple(self):
        queue = AdmissionQueue(8)
        assert queue.snapshot() == (0, 0, 0.0)
        for _ in range(2):
            for page in range(4):
                queue.should_admit(page)
        considerations, admissions, rate = queue.snapshot()
        assert considerations == queue.considerations == 8
        assert admissions == queue.admissions == 4
        assert rate == pytest.approx(admissions / considerations)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


class TestRecommendedSize:
    def test_half_of_nvm_pages(self):
        # §6.5: half the number of pages in the NVM buffer works well.
        assert recommended_queue_size(2048) == 1024

    def test_at_least_one(self):
        assert recommended_queue_size(1) == 1
        assert recommended_queue_size(0) == 1
