"""Tests for the latency model, RTT capture, and placement analysis."""

from __future__ import annotations

import pytest

from repro.analysis.placement import (
    rtt_summary_by_site,
    suggest_sites,
    underserved_blocks,
)
from repro.errors import ConfigurationError
from repro.icmp.latency import LatencyModel


@pytest.fixture(scope="module")
def latency(broot_tiny):
    return LatencyModel(broot_tiny.internet, broot_tiny.service)


class TestLatencyModel:
    def test_rtt_positive_and_deterministic(self, broot_tiny, latency):
        for block in list(broot_tiny.internet.blocks)[:50]:
            first = latency.rtt_ms(block, "LAX", 0)
            if first is None:
                assert broot_tiny.internet.geodb.locate(block) is None
                continue
            assert first > 0
            assert first == latency.rtt_ms(block, "LAX", 0)

    def test_distance_monotone(self, broot_tiny, latency):
        """Blocks near LAX have lower RTT to LAX than antipodal blocks."""
        near = far = None
        for block in broot_tiny.internet.blocks:
            record = broot_tiny.internet.geodb.locate(block)
            if record is None:
                continue
            if record.country_code == "US" and near is None:
                near = block
            if record.country_code in ("AU", "CN", "IN") and far is None:
                far = block
            if near is not None and far is not None:
                break
        if near is None or far is None:
            pytest.skip("topology lacks the required countries at tiny scale")
        assert latency.propagation_rtt_ms(near, "LAX") < latency.propagation_rtt_ms(
            far, "LAX"
        )

    def test_unknown_site(self, broot_tiny, latency):
        block = list(broot_tiny.internet.blocks)[0]
        assert latency.rtt_ms(block, "XXX") is None

    def test_access_delay_in_range(self, latency):
        for block in range(100):
            assert 2.0 <= latency.access_delay_ms(block) <= 25.0

    def test_config_validation(self, broot_tiny):
        with pytest.raises(ConfigurationError):
            LatencyModel(broot_tiny.internet, broot_tiny.service, path_stretch=0.5)
        with pytest.raises(ConfigurationError):
            LatencyModel(broot_tiny.internet, broot_tiny.service, jitter_ms=-1)


class TestScanRtts:
    def test_scan_records_rtts(self, broot_scan):
        assert broot_scan.rtts
        assert set(broot_scan.rtts) == set(broot_scan.catchment.blocks())
        for rtt in broot_scan.rtts.values():
            assert rtt > 0

    def test_rtts_geographic(self, broot_tiny, broot_scan):
        """RTTs must be dominated by geography, not uniform noise."""
        import statistics

        us_rtts = []
        far_rtts = []
        for block, rtt in broot_scan.rtts.items():
            record = broot_tiny.internet.geodb.locate(block)
            if record is None:
                continue
            if record.country_code == "US":
                us_rtts.append(rtt)
            elif record.country_code in ("AU", "IN", "CN", "JP", "ID"):
                far_rtts.append(rtt)
        if len(us_rtts) < 3 or len(far_rtts) < 3:
            pytest.skip("not enough blocks per region at tiny scale")
        assert statistics.median(us_rtts) < statistics.median(far_rtts)

    def test_median_rtt_of_site(self, broot_scan):
        for site in broot_scan.catchment.site_codes:
            median = broot_scan.median_rtt_of_site(site)
            if broot_scan.catchment.blocks_of_site(site):
                assert median is not None and median > 0

    def test_rtt_summary(self, broot_scan):
        summary = rtt_summary_by_site(broot_scan)
        for site, (blocks, median) in summary.items():
            assert blocks == len(broot_scan.catchment.blocks_of_site(site))
            assert median > 0


class TestPlacement:
    def test_underserved_blocks_threshold(self, broot_scan):
        strict = underserved_blocks(broot_scan, rtt_threshold_ms=50.0)
        loose = underserved_blocks(broot_scan, rtt_threshold_ms=400.0)
        assert len(loose) <= len(strict)
        for rtt in strict.values():
            assert rtt > 50.0

    def test_suggestions_in_slow_regions(self, broot_tiny, broot_scan):
        suggestions = suggest_sites(
            broot_scan, broot_tiny.internet.geodb, count=3,
            rtt_threshold_ms=150.0,
        )
        assert suggestions
        for suggestion in suggestions:
            assert suggestion.affected_blocks > 0
            assert suggestion.median_rtt_ms > 150.0
            assert -90 <= suggestion.latitude <= 90
            assert -180 <= suggestion.longitude <= 180
        # Weights sorted descending.
        weights = [s.affected_weight for s in suggestions]
        assert weights == sorted(weights, reverse=True)

    def test_no_suggestions_when_all_fast(self, broot_tiny, broot_scan):
        assert suggest_sites(
            broot_scan, broot_tiny.internet.geodb, rtt_threshold_ms=1e9
        ) == []

    def test_count_validated(self, broot_tiny, broot_scan):
        with pytest.raises(ConfigurationError):
            suggest_sites(broot_scan, broot_tiny.internet.geodb, count=0)
