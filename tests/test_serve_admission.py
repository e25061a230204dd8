"""Admission control: buckets, bounded queues, drain, determinism."""

import pytest

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    Overloaded,
    OverloadReason,
    TokenBucket,
)


def depths(controller: AdmissionController) -> dict[int, int]:
    """Each tenant's admitted-but-unreleased requests, off the snapshot."""
    return {int(tenant): gate["depth"]
            for tenant, gate in controller.snapshot()["tenants"].items()}


class TestTokenBucket:
    def test_burst_then_rate_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        assert bucket.try_take(0.1)      # 0.1s * 10/s = 1 token back
        assert not bucket.try_take(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        for _ in range(3):
            assert bucket.try_take(10.0)  # long idle refills to burst only
        assert not bucket.try_take(10.0)

    def test_clock_regression_degrades_without_raising(self):
        bucket = TokenBucket(rate=10.0, burst=1.0, now=5.0)
        assert bucket.try_take(5.0)
        assert not bucket.try_take(1.0)  # now went backwards: no refill

    def test_same_inputs_same_decisions(self):
        def decisions():
            bucket = TokenBucket(rate=3.0, burst=2.0, now=0.0)
            return [bucket.try_take(t / 10.0) for t in range(40)]

        assert decisions() == decisions()


class TestQueueDepth:
    def test_sheds_beyond_max_depth_until_release(self):
        controller = AdmissionController(AdmissionConfig(max_queue_depth=2))
        controller.try_admit(0, 0.0)
        controller.try_admit(0, 0.0)
        with pytest.raises(Overloaded) as err:
            controller.try_admit(0, 0.0)
        assert err.value.reason is OverloadReason.QUEUE_FULL
        controller.release(0)
        controller.try_admit(0, 0.0)  # slot freed

    def test_depth_is_per_tenant(self):
        controller = AdmissionController(AdmissionConfig(max_queue_depth=1))
        controller.try_admit(0, 0.0)
        controller.try_admit(1, 0.0)  # other tenant unaffected
        with pytest.raises(Overloaded):
            controller.try_admit(0, 0.0)
        assert depths(controller) == {0: 1, 1: 1}

    def test_rate_limit_sheds_with_reason(self):
        controller = AdmissionController(AdmissionConfig(
            max_queue_depth=100, rate_ops_per_s=1.0, burst_ops=1.0))
        controller.try_admit(0, 0.0)
        controller.release(0)
        with pytest.raises(Overloaded) as err:
            controller.try_admit(0, 0.0)
        assert err.value.reason is OverloadReason.RATE_LIMITED

    def test_disabled_controller_never_sheds_but_still_counts(self):
        controller = AdmissionController(AdmissionConfig(
            max_queue_depth=1, rate_ops_per_s=0.001, enabled=False))
        for _ in range(50):
            controller.try_admit(0, 0.0)
        gate = controller.snapshot()["tenants"]["0"]
        assert gate["depth"] == 50
        assert gate["admitted"] == 50
        assert sum(gate["shed"].values()) == 0


class TestDrain:
    def test_drain_refuses_new_work(self):
        controller = AdmissionController()
        controller.try_admit(0, 0.0)
        controller.begin_drain()
        with pytest.raises(Overloaded) as err:
            controller.try_admit(0, 1.0)
        assert err.value.reason is OverloadReason.DRAINING
        # In-flight work keeps its slot and can still complete.
        assert depths(controller) == {0: 1}
        controller.release(0)
        assert depths(controller) == {0: 0}

    def test_drain_refuses_even_when_disabled(self):
        controller = AdmissionController(AdmissionConfig(enabled=False))
        controller.begin_drain()
        with pytest.raises(Overloaded):
            controller.try_admit(0, 0.0)


class TestAccounting:
    def test_snapshot_is_deterministically_ordered(self):
        controller = AdmissionController(AdmissionConfig(max_queue_depth=1))
        for tenant in (2, 0, 1):
            controller.try_admit(tenant, 0.0)
        for tenant in (2, 0):
            with pytest.raises(Overloaded):
                controller.try_admit(tenant, 0.0)
        snapshot = controller.snapshot()
        assert list(snapshot["tenants"]) == ["0", "1", "2"]
        assert snapshot["tenants"]["0"]["shed"]["queue_full"] == 1
        assert snapshot["tenants"]["1"]["shed"]["queue_full"] == 0
        assert snapshot["tenants"]["2"]["admitted"] == 1

    def test_release_of_unknown_tenant_is_noop(self):
        AdmissionController().release(99)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionConfig(rate_ops_per_s=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(burst_ops=0.0)
