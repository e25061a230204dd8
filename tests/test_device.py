"""Simulated device costing and traffic accounting."""

import pytest

from repro.hardware.device import Device
from repro.hardware.simclock import CostAccumulator
from repro.hardware.specs import DRAM_SPEC, NVM_SPEC, PAGE_SIZE, SSD_SPEC, Tier


@pytest.fixture
def nvm() -> Device:
    return Device(NVM_SPEC, capacity_bytes=64 * PAGE_SIZE)


class TestCosting:
    def test_read_service_time(self, nvm: Device):
        # 256 B random read: latency + media transfer.
        expected = 320.0 + 256 / 28.8e9 * 1e9
        assert nvm.read(256) == pytest.approx(expected)

    def test_sequential_read_cheaper(self, nvm: Device):
        assert nvm.read(4096, sequential=True) < nvm.read(4096, sequential=False)

    def test_media_amplification_on_small_read(self, nvm: Device):
        nvm.read(64)
        counters = nvm.snapshot_counters()
        assert counters.read_bytes == 64
        assert counters.media_read_bytes == 256

    def test_write_uses_write_bandwidth(self, nvm: Device):
        service = nvm.write(PAGE_SIZE)
        expected = PAGE_SIZE / 6e9 * 1e9
        assert service == pytest.approx(expected)

    def test_ssd_write_pays_latency(self):
        ssd = Device(SSD_SPEC)
        service = ssd.write(PAGE_SIZE)
        assert service > PAGE_SIZE / 2.3e9 * 1e9  # latency added

    def test_dram_write_has_no_latency_term(self):
        dram = Device(DRAM_SPEC)
        assert dram.write(1024) == pytest.approx(1024 / 180e9 * 1e9)

    def test_persist_barrier(self, nvm: Device):
        assert nvm.persist_barrier() == pytest.approx(100.0)
        assert nvm.snapshot_counters().persist_barriers == 1

    def test_dram_barrier_free(self):
        dram = Device(DRAM_SPEC)
        assert dram.persist_barrier() == 0.0


class TestAccounting:
    def test_charges_flow_to_accumulator(self):
        cost = CostAccumulator()
        device = Device(NVM_SPEC, cost=cost)
        device.read(256)
        device.write(256)
        usage = cost.usage("nvm")
        assert usage.operations == 2
        assert usage.bytes_moved == 512

    def test_counters_accumulate(self, nvm: Device):
        nvm.read(100)
        nvm.read(100)
        nvm.write(300)
        counters = nvm.snapshot_counters()
        assert counters.read_ops == 2
        assert counters.write_ops == 1
        assert counters.read_bytes == 200
        assert counters.write_bytes == 300

    def test_reset_counters(self, nvm: Device):
        nvm.read(100)
        nvm.reset_counters()
        assert nvm.snapshot_counters().read_ops == 0

    def test_write_volume_gb(self, nvm: Device):
        nvm.write(10**9)
        assert nvm.write_volume_gb() == pytest.approx(1.0, rel=0.01)

    def test_endurance_consumed(self):
        device = Device(NVM_SPEC, capacity_bytes=PAGE_SIZE)
        device.write(PAGE_SIZE)
        expected = PAGE_SIZE / (PAGE_SIZE * NVM_SPEC.endurance_cycles)
        assert device.endurance_consumed() == pytest.approx(expected)

    def test_endurance_unbounded_capacity(self):
        device = Device(NVM_SPEC)
        device.write(PAGE_SIZE)
        assert device.endurance_consumed() == 0.0

    def test_capacity_pages(self, nvm: Device):
        assert nvm.capacity_pages(PAGE_SIZE) == 64
        assert Device(NVM_SPEC).capacity_pages(PAGE_SIZE) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Device(NVM_SPEC, capacity_bytes=-1)

    def test_resource_key_matches_tier(self, nvm: Device):
        assert nvm.resource_key == "nvm"
        assert nvm.tier is Tier.NVM
