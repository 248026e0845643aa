"""Tests for the RIPE Atlas simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atlas.platform import AtlasPlatform
from repro.atlas.vp import AtlasVP
from repro.bgp.reference import has_block, site_of_block
from repro.errors import ConfigurationError
from repro.oracle.chaos import wire_measure
from repro.oracle.responder import country_of_block
from tests.conftest import CANONICAL_GRID


@pytest.fixture(scope="module")
def platform(tiny_internet):
    return AtlasPlatform(tiny_internet, vp_count=120)


class TestDeployment:
    def test_vp_count(self, platform):
        assert len(platform.vps) == 120

    def test_vps_in_topology_blocks(self, tiny_internet, platform):
        for vp in platform.vps:
            assert has_block(tiny_internet, vp.block)

    def test_vps_have_geolocation(self, tiny_internet, platform):
        for vp in platform.vps:
            assert country_of_block(tiny_internet, vp.block) == vp.country_code

    def test_europe_skew(self, tiny_internet):
        platform = AtlasPlatform(tiny_internet, vp_count=300)
        from repro.geo.regions import country_by_code

        europe = sum(
            1 for vp in platform.vps
            if country_by_code(vp.country_code).region == "EU"
        )
        # Europe holds well under half the Internet's users but most
        # Atlas probes (the paper's documented deployment skew).
        assert europe / len(platform.vps) > 0.5

    def test_deterministic(self, tiny_internet):
        first = AtlasPlatform(tiny_internet, vp_count=50)
        second = AtlasPlatform(tiny_internet, vp_count=50)
        assert [vp.block for vp in first.vps] == [vp.block for vp in second.vps]

    def test_rejects_zero_vps(self, tiny_internet):
        with pytest.raises(ConfigurationError):
            AtlasPlatform(tiny_internet, vp_count=0)

    def test_rejects_bad_downtime(self, tiny_internet):
        with pytest.raises(ConfigurationError):
            AtlasPlatform(tiny_internet, vp_count=5, unavailable_fraction=1.0)


class TestMeasurement:
    def test_sites_match_routing(self, tiny_internet, platform, two_site_routing):
        # Build a service around the same upstreams as the routing fixture.
        from repro.anycast.service import AnycastService
        from repro.anycast.site import AnycastSite
        from repro.netaddr.prefix import Prefix

        service = AnycastService(
            "svc.example",
            Prefix("192.0.2.0/24"),
            [
                AnycastSite("A", "A", "US", 0, 0,
                            tiny_internet.find_asn_by_name("UP-A")),
                AnycastSite("B", "B", "DE", 0, 0,
                            tiny_internet.find_asn_by_name("UP-B")),
            ],
        )
        measurement = platform.measure(two_site_routing, service, measurement_id=3)
        assert measurement.considered_vps == 120
        assert 0 < measurement.responding_vps <= 120
        for result in measurement.responding:
            assert result.site_code == site_of_block(
                two_site_routing, result.vp.block, 3
            )
            assert result.hostname.startswith(result.site_code.lower())
        # Some VPs should be down (4.6% default).
        assert measurement.responding_vps < measurement.considered_vps

        fractions = measurement.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

        blocks = measurement.responding_blocks()
        assert blocks <= measurement.considered_blocks()
        catchments = measurement.block_catchments()
        assert set(catchments) == blocks


@pytest.mark.parametrize("builder,scale", CANONICAL_GRID)
def test_measure_matches_wire_measure(canonical_routing, builder, scale):
    """Per VP (site, hostname, down): the column read equals the CHAOS
    walk on the DNS wire."""
    scenario, routing = canonical_routing(builder, scale)
    platform = scenario.atlas
    down = up = 0
    for measurement_id in (0, 1, 4, 65536):
        measured = platform.measure(routing, scenario.service, measurement_id)
        wire = wire_measure(platform, routing, scenario.service, measurement_id)
        assert measured.results == wire.results
        assert measured.site_codes == wire.site_codes
        down += measured.considered_vps - measured.responding_vps
        up += measured.responding_vps
    assert down and up


def test_measure_follows_the_rounds_flips(canonical_routing):
    """Few VPs sit behind flipping paths, so place every VP on a block
    that flips in the measured round: both sides must follow the flip."""
    scenario, routing = canonical_routing("tangled", "small")
    blocks = np.asarray(scenario.internet.block_table()[0])
    base = routing.sites_of(blocks)
    flips = routing.sites_of(blocks, 3) != base
    platform = AtlasPlatform(scenario.internet, vp_count=1)
    platform.vps = [
        AtlasVP(vp_id, int(block), "US", 0.0, 0.0)
        for vp_id, block in enumerate(blocks[flips])
    ]
    measured = platform.measure(routing, scenario.service, 3)
    assert measured.results == wire_measure(platform, routing, scenario.service, 3).results
    codes = routing.policy.site_codes
    assert any(
        result.site_code not in (None, codes[site])
        for result, site in zip(measured.results, base[flips])
    )
