"""Tests for the host responsiveness model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.geo.geodb import GeoDatabase
from repro.oracle.responder import (
    is_late_replier,
    replies_from_other_address,
    reply_count,
    reply_latency_ms,
    responds_in_round,
)
from repro.topology.hosts import HostModelConfig
from repro.topology.internet import Internet


@pytest.fixture(scope="module")
def model():
    """The host model of an Internet at seed 123 (the draws read only its seed)."""
    internet = Internet(
        seed=123, as_table=([],) * 5, pop_table=([],) * 4, prefixes=[], edges=[],
        block_table=([], [], []), geodb=GeoDatabase(),
    )
    return internet.host_model


BLOCKS = range(4000)


class TestStableResponders:
    def test_deterministic(self, model):
        for block in range(50):
            assert model.is_stable_responder(block) == model.is_stable_responder(block)

    def test_global_rate_near_55_percent(self, model):
        rate = sum(model.is_stable_responder(b) for b in BLOCKS) / len(BLOCKS)
        assert 0.50 < rate < 0.60

    def test_country_override_lowers_rate(self, model):
        kr_rate = sum(model.is_stable_responder(b, "KR") for b in BLOCKS) / len(BLOCKS)
        assert kr_rate < 0.20

    def test_unknown_country_uses_base(self, model):
        assert model.responsiveness_for("FR") == model.config.base_responsiveness

    def test_none_country_uses_base(self, model):
        assert model.responsiveness_for(None) == model.config.base_responsiveness


class TestChurn:
    def test_nonresponder_never_responds(self, model):
        nonresponders = [b for b in BLOCKS if not model.is_stable_responder(b)][:50]
        for block in nonresponders:
            for round_id in range(5):
                assert not responds_in_round(model, block, round_id)

    def test_churn_rate(self, model):
        responders = [b for b in BLOCKS if model.is_stable_responder(b)]
        silent = sum(
            not responds_in_round(model, b, round_id=3) for b in responders
        ) / len(responders)
        assert 0.01 < silent < 0.05

    def test_churn_varies_by_round(self, model):
        responders = [b for b in BLOCKS if model.is_stable_responder(b)]
        round_a = {b for b in responders if responds_in_round(model, b, 1)}
        round_b = {b for b in responders if responds_in_round(model, b, 2)}
        assert round_a != round_b
        # But the overwhelming majority is stable.
        assert len(round_a & round_b) > 0.9 * len(responders)


class TestDuplicates:
    def test_reply_count_at_least_one(self, model):
        for block in range(300):
            assert reply_count(model, block, 0) >= 1

    def test_duplicate_rate_small(self, model):
        extra = sum(reply_count(model, b, 0) - 1 for b in BLOCKS)
        # ~2% of replies should be duplicates (paper §4).
        assert 0.005 < extra / len(BLOCKS) < 0.08

    def test_heavy_tail_capped(self, model):
        assert all(
            reply_count(model, b, 0) <= model.config.max_duplicates for b in BLOCKS
        )


class TestOffAddressAndLatency:
    def test_off_address_rate(self, model):
        rate = sum(replies_from_other_address(model, b) for b in BLOCKS) / len(BLOCKS)
        assert 0.001 < rate < 0.02

    def test_latency_normal_range(self, model):
        normal = [
            reply_latency_ms(model, b, 0)
            for b in range(500)
            if not is_late_replier(model, b, 0)
        ]
        assert all(10.0 <= value <= 400.0 for value in normal)

    def test_late_replier_exceeds_cutoff(self, model):
        late = [b for b in BLOCKS if is_late_replier(model, b, 0)]
        assert late, "expected some late repliers in 4000 blocks"
        for block in late[:20]:
            assert reply_latency_ms(model, block, 0) > model.config.late_threshold_ms


class TestConfigValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            HostModelConfig(base_responsiveness=1.5)

    def test_rejects_bad_duplicates(self):
        with pytest.raises(ConfigurationError):
            HostModelConfig(max_duplicates=1)

    def test_rejects_bad_heavy_fraction(self):
        with pytest.raises(ConfigurationError):
            HostModelConfig(heavy_duplicate_fraction=0.0)
