"""Cost accumulator: simulated time (makespan/throughput analysis)."""

import sys
import threading

import pytest

from repro.hardware.device import Device
from repro.hardware.simclock import CostAccumulator, ResourceUsage
from repro.hardware.specs import DRAM_SPEC, NVM_SPEC, SSD_SPEC


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

    def test_transfer_charge_lands_like_its_two_charges(self):
        """One device access — ``Device.read``/``write``, which charge the
        accumulator in their own frame — is ``charge_fp`` on the device
        then ``charge_fp`` on the CPU: same tallies, same slot order, the
        same ``total_fp`` seen after each access."""
        accesses = [(SSD_SPEC, False, 4096, False), (DRAM_SPEC, True, 64, False),
                    (NVM_SPEC, False, 256, True), (SSD_SPEC, True, 4096, False)]

        def states(charge):
            cost = CostAccumulator()
            seen = []
            for spec, is_write, nbytes, sequential in accesses:
                charge(cost, Device(spec, cost=cost), is_write, nbytes,
                       sequential)
                seen.append((list(cost.snapshot().items()), cost.total_fp))
            return seen

        def two_calls(cost, device, is_write, nbytes, sequential):
            media, transfer_fp, latency_fp, _ = device._plan(
                nbytes, sequential, is_write)
            cost.charge_fp(device.resource_key, transfer_fp, media)
            if latency_fp is not None:
                cost.charge_fp(CostAccumulator.CPU, latency_fp)

        def one_call(cost, device, is_write, nbytes, sequential):
            access = device.write if is_write else device.read
            access(nbytes, sequential)

        assert states(one_call) == states(two_calls)

    def test_concurrent_charges_equal_the_serial_sums(self):
        """Threads charging one accumulator — device reads and writes,
        which commit transfer and stall in their own frame, and CPU
        ``charge_fp`` calls — lose no unit: every tally and the running
        total equal those of the same charges made by one thread."""
        specs = (DRAM_SPEC, NVM_SPEC, SSD_SPEC)
        threads, rounds = 4, 300

        def work(cost, devices, index):
            for step in range(rounds):
                device = devices[(index + step) % len(devices)]
                if step % 3:
                    device.read(64 << (step % 7), sequential=bool(step % 2))
                else:
                    device.write(256 << (step % 5))
                cost.charge_fp(CostAccumulator.CPU, 1_000 + index * 7 + step)

        def tallies(cost):
            usage = {key: (u.busy_fp, u.operations, u.bytes_moved)
                     for key, u in cost.snapshot().items()}
            return usage, cost.total_fp

        serial = CostAccumulator()
        devices = [Device(spec, cost=serial) for spec in specs]
        for index in range(threads):
            work(serial, devices, index)

        shared = CostAccumulator()
        devices = [Device(spec, cost=shared) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work,
                                        args=(shared, devices, index))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        assert tallies(shared) == tallies(serial)
        assert shared.total_fp == sum(u.busy_fp
                                      for u in shared.snapshot().values())


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
