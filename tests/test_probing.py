"""Tests for hitlists, probe ordering, and the prober."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DatasetError, MeasurementError
from repro.probing.hitlist import Hitlist, HitlistEntry, build_hitlist
from repro.probing.order import PseudorandomOrder
from repro.probing.prober import Prober, ProberConfig


class TestHitlist:
    def test_covers_all_blocks(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        assert hitlist.blocks.tolist() == sorted(tiny_internet.blocks)

    def test_addresses_inside_blocks(self, tiny_internet):
        for entry in build_hitlist(tiny_internet):
            assert entry.address >> 8 == entry.block
            assert 1 <= entry.address & 0xFF <= 254

    def test_entry_for(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        block = hitlist.blocks[3]
        assert hitlist.entry_for(block).block == block
        assert hitlist.entry_for(0xFFFFFF) is None

    def test_scores_track_responsiveness(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        model = tiny_internet.host_model
        for entry in hitlist:
            country = tiny_internet.country_of_block(entry.block)
            if model.is_stable_responder(entry.block, country):
                assert entry.score >= 0.55
            else:
                assert entry.score < 0.55

    def test_subset(self, tiny_internet):
        subset = list(tiny_internet.blocks)[:10]
        hitlist = build_hitlist(tiny_internet, subset)
        assert len(hitlist) == 10

    def test_unknown_block_rejected(self, tiny_internet):
        with pytest.raises(DatasetError):
            build_hitlist(tiny_internet, [0xFFFFFF])

    def test_duplicate_blocks_rejected(self):
        entries = [HitlistEntry(1, 256 + 1, 0.5), HitlistEntry(1, 256 + 2, 0.5)]
        with pytest.raises(DatasetError):
            Hitlist(entries)

    def test_top_scoring(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        top = hitlist.top_scoring(5)
        assert len(top) == 5
        assert all(
            top[i].score >= top[i + 1].score for i in range(len(top) - 1)
        )

    def test_deterministic(self, tiny_internet):
        first = [(e.block, e.address) for e in build_hitlist(tiny_internet)]
        second = [(e.block, e.address) for e in build_hitlist(tiny_internet)]
        assert first == second


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
        prober = Prober(hitlist, ProberConfig(source_address=1, rate_pps=100.0), seed=1)
        schedule = prober.schedule_round(0)
        probes = list(schedule)
        assert probes[1].send_time - probes[0].send_time == pytest.approx(0.01)
        assert schedule.duration_seconds == pytest.approx(len(hitlist) / 100.0)

    def test_identifier_tracks_round(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        prober = Prober(hitlist, ProberConfig(source_address=1), seed=1)
        assert prober.schedule_round(5).identifier == 5
        assert prober.schedule_round(0x1_0005).identifier == 5  # wraps to 16 bits

    def test_each_block_probed_once(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        prober = Prober(hitlist, ProberConfig(source_address=1), seed=1)
        destinations = [probe.destination for probe in prober.schedule_round(0)]
        assert len(destinations) == len(set(destinations)) == len(hitlist)

    def test_rounds_have_different_orders(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        prober = Prober(hitlist, ProberConfig(source_address=1), seed=1)
        first = [probe.destination for probe in prober.schedule_round(0)]
        second = [probe.destination for probe in prober.schedule_round(1)]
        assert first != second
        assert sorted(first) == sorted(second)

    def test_pseudorandom_order_spreads_bursts(self, tiny_internet):
        hitlist = build_hitlist(tiny_internet)
        prober = Prober(
            hitlist, ProberConfig(source_address=1, rate_pps=500.0), seed=1
        )
        _, shuffled_worst = prober.schedule_round(0).max_burst_per_prefix(
            prefix_bits=16
        )
        # Sequential-order baseline: probes sorted by address, same rate.
        sequential_worst = 0
        per_second_prefix: dict = {}
        for position, entry in enumerate(hitlist):
            key = (int(position / 500.0), entry.address >> 16)
            per_second_prefix[key] = per_second_prefix.get(key, 0) + 1
            sequential_worst = max(sequential_worst, per_second_prefix[key])
        assert shuffled_worst < sequential_worst

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ProberConfig(source_address=1, rate_pps=0)
        with pytest.raises(ConfigurationError):
            ProberConfig(source_address=-1)

    def test_empty_hitlist_rejected(self, tiny_internet):
        empty = Hitlist([])
        prober = Prober(empty, ProberConfig(source_address=1), seed=1)
        with pytest.raises(MeasurementError):
            prober.schedule_round(0)
