"""Tests for traffic logs and synthetic workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bgp.reference import has_block
from repro.errors import ConfigurationError, DatasetError
from repro.oracle.responder import country_of_block
from repro.traffic.ditl import build_day_load
from repro.traffic.logs import DayLoad, HOURS, LoadKind
from repro.traffic.workload import WorkloadProfile, nl_profile, root_profile


def make_day_load():
    blocks = [10, 20, 30]
    queries = np.ones((3, HOURS))
    queries[1] *= 10.0
    return DayLoad("svc", "2017-05-15", blocks, queries,
                   np.array([0.5, 0.4, 0.6]), np.array([1.0, 0.95, 0.9]))


class TestDayLoad:
    def test_totals(self):
        load = make_day_load()
        assert load.total_queries() == pytest.approx(24 * (1 + 10 + 1))
        assert load.mean_qps() == pytest.approx(load.total_queries() / 86400)

    def test_daily_kinds(self):
        load = make_day_load()
        daily = load.daily_of_kind(LoadKind.QUERIES)
        good = load.daily_of_kind(LoadKind.GOOD_REPLIES)
        replies = load.daily_of_kind(LoadKind.ALL_REPLIES)
        assert good[0] == pytest.approx(daily[0] * 0.5)
        assert replies[1] == pytest.approx(daily[1] * 0.95)
        with pytest.raises(DatasetError):
            load.daily_of_kind("bogus")

    def test_scaled(self):
        load = make_day_load().scaled(2.0)
        assert load.total_queries() == pytest.approx(2 * 24 * 12)
        with pytest.raises(DatasetError):
            load.scaled(0)

    def test_hourly_totals(self):
        totals = make_day_load().hourly_totals()
        assert totals.shape == (HOURS,)
        assert totals[0] == pytest.approx(12.0)

    def test_rejects_unsorted_blocks(self):
        with pytest.raises(DatasetError):
            DayLoad("s", "d", [3, 1], np.ones((2, HOURS)),
                    np.ones(2), np.ones(2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DatasetError):
            DayLoad("s", "d", [1, 2], np.ones((2, 5)), np.ones(2), np.ones(2))


class TestWorkloadProfile:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="x", sender_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="x", resolver_boost=0.5)
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="x", good_reply_low=0.9, good_reply_high=0.2)

    def test_country_accessors(self):
        profile = root_profile()
        assert profile.multiplier_for("IN") > 1.0
        assert profile.multiplier_for("FR") == 1.0
        assert profile.has_sender_override("KR")
        assert not profile.has_sender_override("FR")


class TestBuildDayLoad:
    def test_deterministic(self, tiny_internet):
        first = build_day_load(tiny_internet, root_profile(), "2017-05-15")
        second = build_day_load(tiny_internet, root_profile(), "2017-05-15")
        assert list(first.blocks) == list(second.blocks)
        assert first.total_queries() == second.total_queries()

    def test_day_index_drifts(self, tiny_internet):
        day0 = build_day_load(tiny_internet, root_profile(), "d0", day_index=0)
        day1 = build_day_load(tiny_internet, root_profile(), "d1", day_index=1)
        assert day0.total_queries() != day1.total_queries()
        # But the sender population is identical (same seed).
        assert list(day0.blocks) == list(day1.blocks)

    def test_senders_subset_of_topology(self, tiny_internet):
        load = build_day_load(tiny_internet, root_profile(), "d")
        for block in load.blocks:
            assert has_block(tiny_internet, int(block))

    def test_target_scaling(self, tiny_internet):
        load = build_day_load(
            tiny_internet, root_profile(), "d", target_total_queries=1e6
        )
        assert load.total_queries() == pytest.approx(1e6)

    def test_senders_mostly_ping_responsive(self, tiny_internet):
        load = build_day_load(tiny_internet, root_profile(), "d")
        model = tiny_internet.host_model
        responsive = sum(
            model.is_stable_responder(
                int(block), country_of_block(tiny_internet, int(block))
            )
            for block in load.blocks
        )
        assert responsive / len(load) > 0.8

    def test_diurnal_variation(self, tiny_internet):
        load = build_day_load(tiny_internet, root_profile(), "d")
        totals = load.hourly_totals()
        assert totals.max() > 1.2 * totals.min()

    def test_heavy_tail(self, tiny_internet):
        load = build_day_load(tiny_internet, root_profile(), "d")
        daily = sorted(load.daily_queries(), reverse=True)
        top_decile = sum(daily[: max(1, len(daily) // 10)])
        assert top_decile / sum(daily) > 0.5

    def test_nl_profile_concentrates_in_europe(self, tiny_internet):
        load = build_day_load(tiny_internet, nl_profile(), "d")
        from repro.geo.regions import country_by_code

        europe = 0.0
        total = 0.0
        daily = load.daily_queries()
        for row, block in enumerate(load.blocks):
            country = country_of_block(tiny_internet, int(block))
            total += daily[row]
            if country and country_by_code(country).region == "EU":
                europe += daily[row]
        assert total > 0
        assert europe / total > 0.5
