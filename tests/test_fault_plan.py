"""FaultPlan: seeded determinism, picklability, and no-op semantics."""

import pickle

import pytest

from repro.faults.plan import (
    DeviceGaveUpError,
    DeviceIOError,
    FaultPlan,
    FaultSchedule,
    TailFault,
)


class TestNoopPlan:
    def test_none_is_noop(self):
        assert FaultPlan.none().is_noop

    def test_empty_schedule_is_noop(self):
        assert FaultSchedule().is_noop

    def test_tail_fault_alone_is_not_noop(self):
        plan = FaultPlan(wal_tail=TailFault.TORN_WRITE)
        assert not plan.is_noop

    def test_zero_rates_yield_noop(self):
        plan = FaultPlan.seeded(42)
        assert plan.is_noop
        assert plan.total_events() == 0


class TestSeededDeterminism:
    def test_same_seed_same_plan(self):
        a = FaultPlan.seeded(7, read_error_rate=0.05, write_error_rate=0.02,
                             spike_rate=0.01)
        b = FaultPlan.seeded(7, read_error_rate=0.05, write_error_rate=0.02,
                             spike_rate=0.01)
        assert a == b

    def test_different_seeds_differ(self):
        a = FaultPlan.seeded(7, read_error_rate=0.05)
        b = FaultPlan.seeded(8, read_error_rate=0.05)
        assert a != b

    def test_streams_are_independent_per_device(self):
        """Adding a device never perturbs another device's schedule."""
        narrow = FaultPlan.seeded(7, device_keys=("ssd",),
                                  read_error_rate=0.05)
        wide = FaultPlan.seeded(7, device_keys=("nvm", "ssd"),
                                read_error_rate=0.05)
        assert narrow.for_device("ssd") == wide.for_device("ssd")

    def test_rate_scales_event_count(self):
        sparse = FaultPlan.seeded(7, read_error_rate=0.001)
        dense = FaultPlan.seeded(7, read_error_rate=0.1)
        assert dense.total_events() > sparse.total_events()

    @pytest.mark.parametrize("rate", [
        {"read_error_rate": 2.0},
        {"write_error_rate": -0.1},
        {"spike_rate": float("nan")},
    ], ids=["read-above-1", "write-negative", "spike-nan"])
    def test_rates_must_be_probabilities(self, rate):
        with pytest.raises(ValueError, match=next(iter(rate))):
            FaultPlan.seeded(7, **rate)
        # The bounds themselves are rates.
        FaultPlan.seeded(7, horizon_ops=10, **dict.fromkeys(rate, 1.0))
        FaultPlan.seeded(7, **dict.fromkeys(rate, 0.0))


class TestPickling:
    def test_plan_roundtrips(self):
        plan = FaultPlan.seeded(
            3, read_error_rate=0.02, spike_rate=0.01,
            wal_tail=TailFault.DROPPED_PERSIST, torn_page_fraction=0.25,
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.wal_tail is TailFault.DROPPED_PERSIST
        assert clone.for_device("ssd") == plan.for_device("ssd")

    def test_errors_pickle(self):
        exc = pickle.loads(pickle.dumps(DeviceIOError("ssd", "read", 5)))
        assert exc.tier_key == "ssd" and exc.op_index == 5
        gave_up = pickle.loads(pickle.dumps(
            DeviceGaveUpError("nvm", "write", 9, attempts=4)))
        assert gave_up.attempts == 4
        assert isinstance(gave_up, DeviceIOError)


class TestDescribe:
    def test_noop_describe(self):
        assert FaultPlan.none().describe() == "FaultPlan(noop)"

    def test_describe_names_devices(self):
        plan = FaultPlan.seeded(5, read_error_rate=0.05)
        text = plan.describe()
        assert "seed=5" in text
        assert "ssd" in text


class TestScheduleWindow:
    def test_window_fields_default_open(self):
        schedule = FaultSchedule(read_errors=frozenset({1}))
        assert schedule.active_after_ns == 0.0
        assert schedule.active_until_ns == float("inf")
        assert schedule.total_events() == 1
