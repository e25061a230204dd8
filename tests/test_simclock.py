"""Simulated clock and cost accumulator (makespan/throughput analysis)."""

import threading

import pytest

from repro.hardware.simclock import CostAccumulator, ResourceUsage, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(100.0) == 100.0
        assert clock.now_ns == 100.0
        assert clock.now_s == pytest.approx(1e-7)

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_reset(self):
        clock = SimClock(5)
        clock.advance(10)
        clock.reset()
        assert clock.now_ns == 0.0

    def test_concurrent_advances_sum(self):
        clock = SimClock()
        threads = [
            threading.Thread(target=lambda: [clock.advance(1.0) for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert clock.now_ns == pytest.approx(4000.0)


class TestResourceUsage:
    def test_charge(self):
        usage = ResourceUsage()
        usage.charge(10.0, 64)
        usage.charge(5.0)
        assert usage.busy_ns == 15.0
        assert usage.operations == 2
        assert usage.bytes_moved == 64

    def test_merged(self):
        a = ResourceUsage(10.0, 1, 100)
        b = ResourceUsage(5.0, 2, 50)
        merged = a.merged(b)
        assert merged.busy_ns == 15.0
        assert merged.operations == 3
        assert merged.bytes_moved == 150


class TestCostAccumulator:
    def test_charge_and_usage(self):
        cost = CostAccumulator()
        cost.charge("nvm", 100.0, 256)
        cost.charge("nvm", 50.0)
        usage = cost.usage("nvm")
        assert usage.busy_ns == 150.0
        assert usage.operations == 2
        assert usage.bytes_moved == 256

    def test_unknown_resource_is_zero(self):
        assert CostAccumulator().usage("ssd").busy_ns == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostAccumulator().charge("cpu", -1.0)

    def test_resources_sorted(self):
        cost = CostAccumulator()
        cost.charge("ssd", 1)
        cost.charge("cpu", 1)
        assert cost.resources() == ["cpu", "ssd"]

    def test_reset(self):
        cost = CostAccumulator()
        cost.charge("cpu", 10)
        cost.reset()
        assert cost.usage("cpu").busy_ns == 0.0

    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    def test_transfer_charge_lands_like_its_two_charges(self, batched):
        """One ``charge_transfer_fp`` is ``charge_fp`` on the device then
        ``charge_fp`` on the CPU: same tallies, same slot order, the same
        ``total_fp`` seen mid-op, the same pending CPU batch."""
        accesses = [("ssd", 700, 4096, 90), ("dram", 5, 64, None),
                    ("nvm", 40, 256, 0), ("ssd", 700, 4096, 90)]

        def states(charge):
            cost = CostAccumulator()
            seen = []
            if batched:
                cost.begin_cpu_batch()
            for access in accesses:
                charge(cost, *access)
                seen.append((list(cost.snapshot().items()), cost.total_fp))
            if batched:
                cost.end_cpu_batch()
            seen.append((list(cost.snapshot().items()), cost.total_fp))
            return seen

        def two_calls(cost, resource, transfer_fp, nbytes, latency_fp):
            cost.charge_fp(resource, transfer_fp, nbytes)
            if latency_fp is not None:
                cost.charge_fp(CostAccumulator.CPU, latency_fp)

        def one_call(cost, *access):
            cost.charge_transfer_fp(*access)

        assert states(one_call) == states(two_calls)


class TestMakespan:
    def test_cpu_divides_across_workers(self):
        cost = CostAccumulator()
        cost.charge(CostAccumulator.CPU, 1600.0)
        assert cost.makespan_ns(1) == pytest.approx(1600.0)
        assert cost.makespan_ns(16) == pytest.approx(100.0)

    def test_device_does_not_divide(self):
        cost = CostAccumulator()
        cost.charge("ssd", 1000.0)
        assert cost.makespan_ns(1) == pytest.approx(1000.0)
        assert cost.makespan_ns(16) == pytest.approx(1000.0)

    def test_bottleneck_is_max(self):
        cost = CostAccumulator()
        cost.charge(CostAccumulator.CPU, 3200.0)
        cost.charge("nvm", 150.0)
        # 1 worker: serialised work dominates (3200 + 150 over one worker).
        assert cost.makespan_ns(1) == pytest.approx(3350.0)
        # 16 workers: per-worker share is 209.4 > nvm busy 150.
        assert cost.makespan_ns(16) == pytest.approx(3350.0 / 16)

    def test_device_bound_at_high_worker_count(self):
        cost = CostAccumulator()
        cost.charge(CostAccumulator.CPU, 1000.0)
        cost.charge("ssd", 900.0)
        assert cost.makespan_ns(100) == pytest.approx(900.0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            CostAccumulator().makespan_ns(0)

    def test_throughput(self):
        cost = CostAccumulator()
        cost.charge(CostAccumulator.CPU, 1e9)  # one simulated second
        assert cost.throughput(1000, workers=1) == pytest.approx(1000.0)

    def test_throughput_zero_ops(self):
        assert CostAccumulator().throughput(0) == 0.0

    def test_throughput_no_work_is_infinite(self):
        assert CostAccumulator().throughput(10) == float("inf")


class TestDelta:
    def test_delta_since_snapshot(self):
        cost = CostAccumulator()
        cost.charge("cpu", 100.0, 10)
        baseline = cost.snapshot()
        cost.charge("cpu", 50.0, 5)
        cost.charge("nvm", 25.0)
        delta = cost.delta_since(baseline)
        assert delta.usage("cpu").busy_ns == pytest.approx(50.0)
        assert delta.usage("cpu").bytes_moved == 5
        assert delta.usage("nvm").busy_ns == pytest.approx(25.0)

    def test_snapshot_is_independent_copy(self):
        cost = CostAccumulator()
        cost.charge("cpu", 100.0)
        snap = cost.snapshot()
        cost.charge("cpu", 100.0)
        assert snap["cpu"].busy_ns == pytest.approx(100.0)
