"""Tests for the flip model."""

from __future__ import annotations

import pytest

from repro.bgp.instability import FlipModel, FlipModelConfig
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
        model = FlipModel(seed=1)
        for round_id in range(50):
            assert model.site_for(flipper_as, None, "A", 7, round_id) == "A"

    def test_flipper_blocks_flip_sometimes(self, flipper_as):
        model = FlipModel(seed=1, config=FlipModelConfig(
            flipper_block_fraction=1.0, flipper_flip_probability=0.5))
        outcomes = {
            model.site_for(flipper_as, "B", "A", 7, round_id)
            for round_id in range(100)
        }
        assert outcomes == {"A", "B"}

    def test_nonparticipating_blocks_stay(self, flipper_as):
        model = FlipModel(seed=1, config=FlipModelConfig(flipper_block_fraction=0.0))
        for round_id in range(50):
            assert model.site_for(flipper_as, "B", "A", 7, round_id) == "A"

    def test_participation_rate(self, flipper_as):
        model = FlipModel(seed=3, config=FlipModelConfig(flipper_block_fraction=0.25))
        rate = sum(
            model.participates(flipper_as, block) for block in range(4000)
        ) / 4000
        assert 0.20 < rate < 0.30

    def test_background_flips_rare(self, normal_as):
        model = FlipModel(seed=1)
        flips = sum(
            model.site_for(normal_as, "B", "A", block, 1) == "B"
            for block in range(5000)
        )
        assert 0 < flips < 30  # ~0.15% background

    def test_deterministic(self, flipper_as):
        model = FlipModel(seed=9)
        first = [model.site_for(flipper_as, "B", "A", 7, r) for r in range(20)]
        second = [model.site_for(flipper_as, "B", "A", 7, r) for r in range(20)]
        assert first == second

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FlipModelConfig(flipper_flip_probability=1.5)
