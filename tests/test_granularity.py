"""Loading-unit arithmetic, including the Fig. 11 amplification story."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.specs import CACHE_LINE_SIZE, NVM_MEDIA_GRANULARITY, PAGE_SIZE
from repro.pages.granularity import (
    FIG11_GRANULARITIES,
    HYMEM_LOADING_UNIT,
    OPTANE_LOADING_UNIT,
    LoadingUnit,
)


class TestValidation:
    def test_defaults(self):
        assert OPTANE_LOADING_UNIT.nbytes == 256
        assert HYMEM_LOADING_UNIT.nbytes == 64

    def test_must_be_cache_line_multiple(self):
        with pytest.raises(ValueError):
            LoadingUnit(100)

    def test_must_be_at_least_one_line(self):
        with pytest.raises(ValueError):
            LoadingUnit(32)

    def test_cannot_exceed_page(self):
        with pytest.raises(ValueError):
            LoadingUnit(2 * PAGE_SIZE)

    def test_fig11_granularities(self):
        assert FIG11_GRANULARITIES == (64, 128, 256, 512)


class TestArithmetic:
    def test_units_for_bytes(self):
        unit = LoadingUnit(256)
        assert unit.units_for_bytes(1) == 1
        assert unit.units_for_bytes(256) == 1
        assert unit.units_for_bytes(257) == 2
        assert unit.units_for_bytes(0) == 0

    def test_lines_per_unit(self):
        assert LoadingUnit(64).lines_per_unit == 1
        assert LoadingUnit(512).lines_per_unit == 8

    def test_media_amplification_of_small_units(self):
        # A 64 B unit still reads a 256 B media block: 4x amplification.
        assert LoadingUnit(64).media_bytes(64) == 256
        assert LoadingUnit(64).amplification(64) == pytest.approx(4.0)

    def test_media_at_exact_granularity(self):
        assert LoadingUnit(256).media_bytes(256) == 256
        assert LoadingUnit(256).amplification(256) == pytest.approx(1.0)

    def test_large_units_waste_transfer(self):
        # Loading 100 B with a 512 B unit moves 512 B of media.
        assert LoadingUnit(512).media_bytes(100) == 512

    def test_fig11_shape_for_tuple_access(self):
        """256 B is optimal for a ~1 KB tuple access (Fig. 11)."""
        tuple_bytes = 1024 + CACHE_LINE_SIZE  # misaligned tuple span
        media = {g: LoadingUnit(g).media_bytes(tuple_bytes)
                 for g in FIG11_GRANULARITIES}
        assert media[256] <= media[64]
        assert media[256] <= media[128]
        assert media[256] <= media[512]

    def test_amplification_zero_bytes(self):
        assert LoadingUnit(256).amplification(0) == 0.0


class TestProperties:
    @given(st.sampled_from(FIG11_GRANULARITIES), st.integers(1, PAGE_SIZE))
    def test_media_covers_request(self, granularity, nbytes):
        unit = LoadingUnit(granularity)
        assert unit.media_bytes(nbytes) >= nbytes

    @given(st.sampled_from(FIG11_GRANULARITIES), st.integers(1, PAGE_SIZE))
    def test_media_is_block_multiple(self, granularity, nbytes):
        unit = LoadingUnit(granularity)
        assert unit.media_bytes(nbytes) % NVM_MEDIA_GRANULARITY == 0

    @given(st.integers(1, PAGE_SIZE))
    def test_256_never_beaten_on_amplification_by_64(self, nbytes):
        assert (LoadingUnit(256).media_bytes(nbytes)
                <= LoadingUnit(64).media_bytes(nbytes))
