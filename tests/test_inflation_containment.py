"""Tests for latency inflation and catchment containment analyses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.containment import (
    containment_report,
    country_site_matrix,
    format_containment_table,
)
from repro.analysis.inflation import (
    format_inflation_table,
    inflation_per_block,
    summarize_inflation,
)
from repro.anycast.catchment import CatchmentMap
from repro.geo.geodb import GeoColumns, GeoDatabase
from repro.icmp.latency import LatencyModel


@pytest.fixture(scope="module")
def latency(broot_tiny):
    return LatencyModel(broot_tiny.internet, broot_tiny.service)


class TestInflation:
    def test_per_block_structure(self, broot_scan, latency):
        per_block = inflation_per_block(broot_scan, latency)
        assert per_block
        for block, (measured, best, best_site) in per_block.items():
            assert measured > 0
            assert best > 0
            assert best_site in ("LAX", "MIA")
            # The optimal is by construction no worse than any site's
            # RTT, including the serving site's nominal RTT.
            serving = broot_scan.catchment.site_of(block)
            serving_rtt = latency.rtt_ms(block, serving, broot_scan.round_id)
            if serving_rtt is not None:
                assert best <= serving_rtt + 1e-9

    def test_summary_invariants(self, broot_scan, latency):
        summary = summarize_inflation(broot_scan, latency)
        assert 0 < summary.blocks <= broot_scan.mapped_blocks
        assert 0.0 <= summary.optimal_fraction <= 1.0
        assert summary.median_ms <= summary.p90_ms <= summary.worst_ms
        assert summary.mean_optimal_ms <= summary.mean_measured_ms + 1e-9

    def test_some_blocks_inflated(self, broot_scan, latency):
        """BGP is not latency-optimal: a real share of blocks is inflated."""
        summary = summarize_inflation(broot_scan, latency)
        assert summary.optimal_fraction < 1.0
        assert summary.worst_ms > 0.0

    def test_formatting(self, broot_scan, latency):
        text = format_inflation_table(summarize_inflation(broot_scan, latency))
        assert "latency inflation" in text

    def test_empty_scan(self, broot_scan, latency):
        from dataclasses import replace

        empty = replace(broot_scan, rtts={})
        assert inflation_per_block(empty, latency) == {}
        assert summarize_inflation(empty, latency).blocks == 0


def _toy_world():
    # Blocks 1-4 in CN, 5-6 in US, 7 unlocatable.
    geodb = GeoDatabase(GeoColumns(
        np.arange(1, 7, dtype=np.int64),
        np.array([30.0] * 4 + [40.0] * 2),
        np.array([100.0] * 4 + [-100.0] * 2),
        np.array([0] * 4 + [1] * 2, dtype=np.int32),
        ("CN", "US"),
    ))
    catchment = CatchmentMap.from_mapping(
        ["BEIJING", "OTHER"],
        {1: "BEIJING", 2: "BEIJING", 3: "OTHER", 4: "BEIJING",
         5: "BEIJING", 6: "OTHER", 7: "BEIJING"},
    )
    return catchment, geodb


class TestContainment:
    def test_counts(self):
        catchment, geodb = _toy_world()
        report = containment_report(catchment, geodb, "BEIJING", "CN")
        assert report.inside_at_site == 3    # blocks 1, 2, 4
        assert report.inside_elsewhere == 1  # block 3
        assert report.outside_at_site == 1   # block 5 (US served by BEIJING)

    def test_fractions(self):
        catchment, geodb = _toy_world()
        report = containment_report(catchment, geodb, "BEIJING", "CN")
        assert report.containment_fraction == pytest.approx(3 / 4)
        assert report.leakage_fraction == pytest.approx(1 / 4)

    def test_unlocatable_blocks_ignored(self):
        catchment, geodb = _toy_world()
        report = containment_report(catchment, geodb, "BEIJING", "CN")
        total = (
            report.inside_at_site + report.inside_elsewhere + report.outside_at_site
        )
        assert total == 5  # block 7 has no geolocation

    def test_country_site_matrix(self):
        catchment, geodb = _toy_world()
        matrix = country_site_matrix(catchment, geodb, "CN")
        assert matrix == {"BEIJING": 3, "OTHER": 1}

    def test_on_real_scenario(self, broot_tiny, broot_scan):
        """MIA (AMPATH) is relatively stronger in Brazil than in the US
        (paper §5.1: AMPATH is "very well connected in Brazil")."""
        geodb = broot_tiny.internet.geodb
        brazil = country_site_matrix(broot_scan.catchment, geodb, "BR")
        states = country_site_matrix(broot_scan.catchment, geodb, "US")
        if sum(brazil.values()) < 10 or sum(states.values()) < 10:
            pytest.skip("too few blocks per country at tiny scale")
        mia_share_br = brazil.get("MIA", 0) / sum(brazil.values())
        mia_share_us = states.get("MIA", 0) / sum(states.values())
        assert mia_share_br > mia_share_us - 0.15

    def test_formatting(self):
        catchment, geodb = _toy_world()
        report = containment_report(catchment, geodb, "BEIJING", "CN")
        text = format_containment_table([report])
        assert "leakage" in text
        assert "BEIJING" in text
