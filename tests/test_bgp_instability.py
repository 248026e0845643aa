"""Tests for the flip model: :data:`FLIP_RATES` and the per-block draws."""

from __future__ import annotations

import pytest

from repro.bgp.instability import FLIP_RATES, FlipModelConfig
from repro.bgp.reference import participates, site_for
from repro.errors import ConfigurationError
from repro.topology.asys import ASTier, AutonomousSystem


@pytest.fixture
def flipper_as():
    return AutonomousSystem(1, ASTier.TRANSIT, "FLIP", "CN", [0], flipper=True)


@pytest.fixture
def normal_as():
    return AutonomousSystem(2, ASTier.STUB, "CALM", "US", [1], flipper=False)


class TestFlipModel:
    def test_no_alternate_never_flips(self, flipper_as):
        for round_id in range(50):
            assert site_for(1, FLIP_RATES, flipper_as, None, "A", 7, round_id) == "A"

    def test_flipper_blocks_flip_sometimes(self, flipper_as):
        rates = FlipModelConfig(flipper_block_fraction=1.0, flipper_flip_probability=0.5)
        outcomes = {
            site_for(1, rates, flipper_as, "B", "A", 7, round_id)
            for round_id in range(100)
        }
        assert outcomes == {"A", "B"}

    def test_nonparticipating_blocks_stay(self, flipper_as):
        rates = FlipModelConfig(flipper_block_fraction=0.0)
        for round_id in range(50):
            assert site_for(1, rates, flipper_as, "B", "A", 7, round_id) == "A"

    def test_participation_rate(self, flipper_as):
        rates = FlipModelConfig(flipper_block_fraction=0.25)
        rate = sum(
            participates(3, rates, flipper_as, block) for block in range(4000)
        ) / 4000
        assert 0.20 < rate < 0.30

    def test_background_flips_rare(self, normal_as):
        flips = sum(
            site_for(1, FLIP_RATES, normal_as, "B", "A", block, 1) == "B"
            for block in range(5000)
        )
        assert 0 < flips < 30  # ~0.15% background

    def test_deterministic(self, flipper_as):
        first = [site_for(9, FLIP_RATES, flipper_as, "B", "A", 7, r) for r in range(20)]
        second = [site_for(9, FLIP_RATES, flipper_as, "B", "A", 7, r) for r in range(20)]
        assert first == second

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FlipModelConfig(flipper_flip_probability=1.5)
