"""Tests for hitlists, probe ordering, and the prober."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DatasetError, MeasurementError
from repro.oracle.responder import country_of_block
from repro.oracle.schedule import ProbeSchedule, PseudorandomOrder
from repro.probing.hitlist import Hitlist, build_hitlist
from repro.probing.prober import ProberConfig


class TestHitlist:
    def test_covers_all_blocks(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        assert hitlist.blocks.tolist() == sorted(tiny_internet.blocks)

    def test_addresses_inside_blocks(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        assert (hitlist.addresses >> 8 == hitlist.blocks).all()
        octets = hitlist.addresses & 0xFF
        assert ((1 <= octets) & (octets <= 254)).all()

    def test_scores_track_responsiveness(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        model = tiny_internet.host_model
        for block, score in zip(hitlist.blocks.tolist(), hitlist.scores.tolist()):
            country = country_of_block(tiny_internet, block)
            if model.is_stable_responder(block, country):
                assert score >= 0.55
            else:
                assert score < 0.55

    def test_subset(self, tiny_internet):
        subset = list(tiny_internet.blocks)[:10]
        hitlist = build_hitlist(tiny_internet, subset)
        assert len(hitlist) == 10

    def test_unknown_block_rejected(self, tiny_internet):
        with pytest.raises(DatasetError):
            build_hitlist(tiny_internet, [0xFFFFFF])

    def test_duplicate_blocks_rejected(self):
        blocks, addresses = np.array([1, 1]), np.array([256 + 1, 256 + 2])
        with pytest.raises(DatasetError):
            Hitlist(blocks, addresses, np.array([0.5, 0.5]))

    def test_deterministic(self, tiny_internet):
        first, second = build_hitlist(tiny_internet), build_hitlist(tiny_internet)
        assert first.blocks.tolist() == second.blocks.tolist()
        assert first.addresses.tolist() == second.addresses.tolist()


class TestPseudorandomOrder:
    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=0, max_value=(1 << 63)),
    )
    def test_is_permutation(self, n, seed):
        order = PseudorandomOrder(n, seed)
        values = list(order)
        assert sorted(values) == list(range(n))

    def test_deterministic(self):
        assert list(PseudorandomOrder(100, 7)) == list(PseudorandomOrder(100, 7))

    def test_seed_changes_order(self):
        assert list(PseudorandomOrder(100, 7)) != list(PseudorandomOrder(100, 8))

    def test_not_identity(self):
        assert list(PseudorandomOrder(1000, 7)) != list(range(1000))

    def test_index_bounds_checked(self):
        order = PseudorandomOrder(10, 1)
        with pytest.raises(ConfigurationError):
            order.index(10)
        with pytest.raises(ConfigurationError):
            order.index(-1)

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            PseudorandomOrder(0, 1)

    def test_scatters_consecutive_probes(self):
        order = PseudorandomOrder(4096, 3)
        sequence = [order.index(i) for i in range(64)]
        jumps = [abs(b - a) for a, b in zip(sequence, sequence[1:])]
        assert sum(jumps) / len(jumps) > 100, "consecutive probes too close"


class TestProber:
    def test_rate_spacing(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        config = ProberConfig(source_address=1, rate_pps=100.0)
        schedule = ProbeSchedule(hitlist, config, seed=1, round_id=0)
        probes = list(schedule)
        assert probes[1].send_time - probes[0].send_time == pytest.approx(0.01)
        assert schedule.duration_seconds == pytest.approx(len(hitlist) / 100.0)

    def test_identifier_tracks_round(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        config = ProberConfig(source_address=1)
        assert ProbeSchedule(hitlist, config, 1, 5).identifier == 5
        assert ProbeSchedule(hitlist, config, 1, 0x1_0005).identifier == 5  # wraps to 16 bits

    def test_each_block_probed_once(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        schedule = ProbeSchedule(hitlist, ProberConfig(source_address=1), 1, 0)
        destinations = [probe.destination for probe in schedule]
        assert len(destinations) == len(set(destinations)) == len(hitlist)

    def test_rounds_have_different_orders(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        config = ProberConfig(source_address=1)
        first = [probe.destination for probe in ProbeSchedule(hitlist, config, 1, 0)]
        second = [probe.destination for probe in ProbeSchedule(hitlist, config, 1, 1)]
        assert first != second
        assert sorted(first) == sorted(second)

    def test_pseudorandom_order_spreads_bursts(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        schedule = ProbeSchedule(
            hitlist, ProberConfig(source_address=1, rate_pps=500.0), seed=1, round_id=0
        )
        _, shuffled_worst = schedule.max_burst_per_prefix(prefix_bits=16)
        # Sequential-order baseline: probes sorted by address, same rate.
        sequential_worst = 0
        per_second_prefix: dict = {}
        for position, address in enumerate(hitlist.addresses.tolist()):
            key = (int(position / 500.0), address >> 16)
            per_second_prefix[key] = per_second_prefix.get(key, 0) + 1
            sequential_worst = max(sequential_worst, per_second_prefix[key])
        assert shuffled_worst < sequential_worst

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ProberConfig(source_address=1, rate_pps=0)
        with pytest.raises(ConfigurationError):
            ProberConfig(source_address=-1)

    def test_empty_hitlist_rejected(self, tiny_internet):
        empty = Hitlist(np.array([], np.int64), np.array([], np.int64), np.array([]))
        with pytest.raises(MeasurementError):
            ProbeSchedule(empty, ProberConfig(source_address=1), seed=1, round_id=0)
