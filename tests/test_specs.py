"""Device specifications (Table 1 transcription) and the simulation scale."""

import pytest

from repro.hardware.specs import (
    CACHE_LINE_SIZE,
    CACHE_LINES_PER_PAGE,
    DEFAULT_SPECS,
    DRAM_SPEC,
    NVM_MEDIA_GRANULARITY,
    NVM_SPEC,
    PAGE_SIZE,
    SSD_SPEC,
    Addressability,
    DeviceSpec,
    SimulationScale,
    Tier,
)


class TestConstants:
    def test_page_holds_256_cache_lines(self):
        assert PAGE_SIZE == 16 * 1024
        assert CACHE_LINES_PER_PAGE == 256
        assert PAGE_SIZE == CACHE_LINES_PER_PAGE * CACHE_LINE_SIZE

    def test_optane_media_granularity(self):
        assert NVM_MEDIA_GRANULARITY == 256


class TestTier:
    def test_ordering_is_top_down(self):
        assert Tier.DRAM < Tier.NVM < Tier.SSD

    def test_persistence(self):
        assert not Tier.DRAM.is_persistent
        assert Tier.NVM.is_persistent
        assert Tier.SSD.is_persistent


class TestTable1Transcription:
    """Invariants of the paper's Table 1 that the cost model relies on."""

    def test_latency_ordering(self):
        assert (
            DRAM_SPEC.rand_read_latency_ns
            < NVM_SPEC.rand_read_latency_ns
            < SSD_SPEC.rand_read_latency_ns
        )

    def test_bandwidth_ordering(self):
        for attr in ("seq_read_bw", "rand_read_bw", "seq_write_bw", "rand_write_bw"):
            assert getattr(DRAM_SPEC, attr) > getattr(NVM_SPEC, attr)
            assert getattr(NVM_SPEC, attr) > getattr(SSD_SPEC, attr)

    def test_nvm_read_write_asymmetry(self):
        # Optane writes are much slower than reads, especially random.
        assert NVM_SPEC.rand_write_bw < NVM_SPEC.rand_read_bw
        assert NVM_SPEC.rand_write_bw == pytest.approx(6e9)

    def test_prices(self):
        assert DRAM_SPEC.price_per_gb == 10.0
        assert NVM_SPEC.price_per_gb == 4.5
        assert SSD_SPEC.price_per_gb == 2.8

    def test_addressability(self):
        assert DRAM_SPEC.addressability is Addressability.BYTE
        assert NVM_SPEC.addressability is Addressability.BYTE
        assert SSD_SPEC.addressability is Addressability.BLOCK

    def test_default_specs_cover_all_tiers(self):
        assert set(DEFAULT_SPECS) == {Tier.DRAM, Tier.NVM, Tier.SSD}
        for tier, spec in DEFAULT_SPECS.items():
            assert spec.tier is tier

    def test_persistence_flags(self):
        assert not DRAM_SPEC.persistent
        assert NVM_SPEC.persistent
        assert SSD_SPEC.persistent


class TestDeviceSpecBehaviour:
    def test_media_bytes_rounds_up(self):
        assert NVM_SPEC.media_bytes(1) == 256
        assert NVM_SPEC.media_bytes(256) == 256
        assert NVM_SPEC.media_bytes(257) == 512
        assert SSD_SPEC.media_bytes(1) == PAGE_SIZE

    def test_media_bytes_zero(self):
        assert NVM_SPEC.media_bytes(0) == 0
        assert NVM_SPEC.media_bytes(-5) == 0

    def test_scaled_override(self):
        slower = NVM_SPEC.scaled(rand_read_latency_ns=640.0)
        assert slower.rand_read_latency_ns == 640.0
        assert slower.seq_read_latency_ns == NVM_SPEC.seq_read_latency_ns

    def test_invalid_granularity_rejected(self):
        with pytest.raises(ValueError):
            NVM_SPEC.scaled(media_granularity=0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            NVM_SPEC.scaled(seq_read_bw=0.0)


class TestSimulationScale:
    def test_round_trip(self):
        scale = SimulationScale(pages_per_gb=64)
        assert scale.pages(1.0) == 64
        assert scale.gigabytes(64) == pytest.approx(1.0)

    def test_fractional_gigabytes(self):
        scale = SimulationScale(pages_per_gb=64)
        assert scale.pages(12.5) == 800

    def test_zero(self):
        assert SimulationScale().pages(0.0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulationScale().pages(-1.0)
