"""Tests for the CDN-scale scenario."""

from __future__ import annotations

import pytest

from repro.core.scenarios import cdn_like
from repro.core.verfploeter import Verfploeter


@pytest.fixture(scope="module")
def cdn():
    return cdn_like(scale="tiny", seed=4242)


class TestCdnScenario:
    def test_twenty_sites(self, cdn):
        assert len(cdn.service.sites) == 20

    def test_six_continents(self, cdn):
        from repro.geo.regions import country_by_code

        regions = {
            country_by_code(site.country_code).region for site in cdn.service.sites
        }
        assert len(regions) == 6

    def test_shared_upstreams(self, cdn):
        """Several sites per regional upstream, like a real CDN."""
        upstream_counts: dict = {}
        for site in cdn.service.sites:
            upstream_counts[site.upstream_asn] = (
                upstream_counts.get(site.upstream_asn, 0) + 1
            )
        assert max(upstream_counts.values()) >= 3
        assert len(upstream_counts) == 7

    def test_scan_spreads_over_sites(self, cdn):
        verfploeter = Verfploeter(cdn.internet, cdn.service)
        scan = verfploeter.run_scan()
        active = [
            site for site, fraction in scan.catchment.fractions().items()
            if fraction > 0.01
        ]
        assert len(active) >= 5

    def test_deterministic(self):
        first = cdn_like(scale="tiny", seed=4242)
        second = cdn_like(scale="tiny", seed=4242)
        assert first.internet.summary() == second.internet.summary()
