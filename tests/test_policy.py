"""Migration-policy taxonomy and Table 3 presets."""

import random
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from repro.core.policy import (
    DRAM_SSD_POLICY,
    HYMEM_POLICY,
    NVM_SSD_POLICY,
    POLICY_PRESETS,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
    MigrationPolicy,
    NvmAdmission,
)

#: A policy's four probabilities, without its name.
knobs = attrgetter("d_r", "d_w", "n_r", "n_w")


class TestValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            MigrationPolicy(d_r=1.5)
        with pytest.raises(ValueError):
            MigrationPolicy(n_w=-0.1)

    def test_label(self):
        assert MigrationPolicy(name="X").label() == "X"
        assert MigrationPolicy(0.5, 1, 1, 1).label() == "<0.5, 1, 1, 1>"


class TestDraws:
    def test_certain_draws_skip_rng(self):
        policy = MigrationPolicy(1.0, 0.0, 1.0, 0.0)
        rng = random.Random(0)
        assert policy.promote_to_dram_on_read(rng)
        assert not policy.route_write_through_dram(rng)
        assert policy.admit_to_nvm_on_fetch(rng)
        assert not policy.admit_to_nvm_on_eviction(rng)

    def test_probabilistic_draw_rate(self):
        policy = MigrationPolicy(d_r=0.3)
        rng = random.Random(42)
        hits = sum(policy.promote_to_dram_on_read(rng) for _ in range(20_000))
        assert 0.27 < hits / 20_000 < 0.33

    def test_lazy_draw_rate(self):
        policy = SPITFIRE_LAZY
        rng = random.Random(7)
        hits = sum(policy.promote_to_dram_on_read(rng) for _ in range(50_000))
        assert 0.005 < hits / 50_000 < 0.015


class TestTable3Presets:
    def test_eager(self):
        assert knobs(SPITFIRE_EAGER) == (1.0, 1.0, 1.0, 1.0)

    def test_lazy(self):
        assert knobs(SPITFIRE_LAZY) == (0.01, 0.01, 0.2, 1.0)

    def test_hymem(self):
        assert HYMEM_POLICY.d_r == 1.0
        assert HYMEM_POLICY.n_r == 0.0
        assert HYMEM_POLICY.nvm_admission is NvmAdmission.ADMISSION_QUEUE

    def test_two_tier_presets(self):
        assert DRAM_SSD_POLICY.n_r == 0.0
        assert NVM_SSD_POLICY.d_r == 0.0

    def test_registry(self):
        assert set(POLICY_PRESETS) == {
            "Spitfire-Eager", "Spitfire-Lazy", "HyMem", "DRAM-SSD", "NVM-SSD",
        }

    def test_presets_are_frozen(self):
        with pytest.raises(AttributeError):
            SPITFIRE_LAZY.d_r = 0.5  # type: ignore[misc]


class TestProperties:
    @given(st.floats(0, 1), st.integers(0, 2**31))
    def test_draw_frequency_tracks_probability(self, probability, seed):
        policy = MigrationPolicy(d_r=probability)
        rng = random.Random(seed)
        draws = [policy.promote_to_dram_on_read(rng) for _ in range(500)]
        if probability == 0.0:
            assert not any(draws)
        if probability == 1.0:
            assert all(draws)
