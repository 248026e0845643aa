"""Tests for the site-addition planning loop."""

from __future__ import annotations

import pytest

from repro.analysis.placement import suggest_sites
from repro.core.planning import evaluate_site_addition, find_upstream_near
from repro.errors import ConfigurationError
from repro.netaddr.prefix import Prefix


class TestFindUpstream:
    def test_returns_nearby_transit(self, broot_tiny):
        asn, country = find_upstream_near(broot_tiny.internet, 52.0, 5.0)
        asys = broot_tiny.internet.ases[asn]
        assert asys.tier in ("tier1", "transit")
        # The chosen PoP should be in or near Europe.
        pops = broot_tiny.internet.pops_of_asn(asn)
        from repro.geo.distance import haversine_km

        assert min(
            haversine_km(52.0, 5.0, pop.latitude, pop.longitude) for pop in pops
        ) < 5000

    def test_deterministic(self, broot_tiny):
        first = find_upstream_near(broot_tiny.internet, 0.0, 100.0)
        second = find_upstream_near(broot_tiny.internet, 0.0, 100.0)
        assert first == second


class TestEvaluateSiteAddition:
    @pytest.fixture(scope="class")
    def result(self, broot_tiny, broot_scan):
        suggestion = suggest_sites(
            broot_scan, broot_tiny.internet.geodb, count=1
        )[0]
        return evaluate_site_addition(
            broot_tiny, "NEW", suggestion.latitude, suggestion.longitude
        )

    def test_new_site_captures_blocks(self, result):
        assert result.captured_blocks > 0
        assert 0.0 < result.capture_fraction < 1.0

    def test_trial_has_three_sites(self, result):
        assert set(result.trial_scan.catchment.site_codes) == {
            "LAX", "MIA", "NEW"
        }
        assert set(result.baseline_scan.catchment.site_codes) == {"LAX", "MIA"}

    def test_latency_improves(self, result):
        """Placing a site where the placement analysis points must cut
        mean RTT — the suggestion targeted high-RTT regions."""
        assert result.mean_rtt_saving_ms > 0

    def test_new_site_is_fast_for_its_catchment(self, result):
        assert result.median_rtt_of_new_site_ms is not None
        assert result.median_rtt_of_new_site_ms < result.mean_rtt_before_ms

    def test_production_prefix_untouched(self, broot_tiny, result):
        assert result.trial_scan.catchment is not None
        assert broot_tiny.service.prefix == Prefix("199.9.14.0/24")

    def test_duplicate_code_rejected(self, broot_tiny):
        with pytest.raises(ConfigurationError):
            evaluate_site_addition(broot_tiny, "LAX", 0.0, 0.0)

    def test_unknown_upstream_rejected(self, broot_tiny):
        with pytest.raises(ConfigurationError):
            evaluate_site_addition(
                broot_tiny, "NEW", 0.0, 0.0, upstream_asn=999_999
            )

    def test_explicit_upstream_honoured(self, broot_tiny):
        upstream = broot_tiny.internet.find_asn_by_name("TRANSIT-0")
        result = evaluate_site_addition(
            broot_tiny, "NEW", 0.0, 0.0, upstream_asn=upstream
        )
        assert result.site.upstream_asn == upstream
