"""Tests for the canonical scenarios."""

from __future__ import annotations

import pytest

from repro.core.scenarios import SCALES, broot_like, nl_like, tangled_like
from repro.errors import ConfigurationError
from repro.oracle.responder import country_of_block


class TestBroot:
    def test_sites(self, broot_tiny):
        assert broot_tiny.service.site_codes == ["LAX", "MIA"]
        assert broot_tiny.service.prefix.length == 24

    def test_upstreams_exist(self, broot_tiny):
        for site in broot_tiny.service.sites:
            assert site.upstream_asn in broot_tiny.internet.ases

    def test_giants_seeded(self, broot_tiny):
        chinanet = broot_tiny.internet.find_asn_by_name("CHINANET")
        assert broot_tiny.internet.ases[chinanet].flipper
        assert (broot_tiny.internet.block_table()[1] == chinanet).any()

    def test_ampath_is_south_america_heavy(self, broot_tiny):
        ampath = broot_tiny.internet.find_asn_by_name("AMPATH")
        pops = [broot_tiny.internet.pops[i] for i in broot_tiny.internet.ases[ampath].pop_ids]
        assert {"US", "BR", "AR"} <= {pop.country_code for pop in pops}

    def test_day_load(self, broot_tiny):
        load = broot_tiny.day_load("2017-05-15", target_total_queries=1e6)
        assert load.total_queries() == pytest.approx(1e6)
        assert load.service_name == "root"

    def test_deterministic(self):
        first = broot_like(scale="tiny", seed=7)
        second = broot_like(scale="tiny", seed=7)
        assert first.internet.summary() == second.internet.summary()
        assert [vp.block for vp in first.atlas.vps] == [
            vp.block for vp in second.atlas.vps
        ]


class TestTangled:
    def test_nine_sites(self, tangled_tiny):
        assert len(tangled_tiny.service.sites) == 9
        assert set(tangled_tiny.service.site_codes) == {
            "SYD", "CDG", "HND", "ENS", "LHR", "MIA", "IAD", "SAO", "CPH"
        }

    def test_vultr_hosts_three_sites(self, tangled_tiny):
        vultr = tangled_tiny.internet.find_asn_by_name("VULTR")
        shared = [
            site for site in tangled_tiny.service.sites
            if site.upstream_asn == vultr
        ]
        assert {site.code for site in shared} == {"SYD", "CDG", "LHR"}

    def test_sao_and_mia_share_upstream(self, tangled_tiny):
        service = tangled_tiny.service
        assert service.site("SAO").upstream_asn == service.site("MIA").upstream_asn

    def test_all_scales_defined(self):
        assert set(SCALES) == {"tiny", "small", "medium", "large", "xlarge"}

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            tangled_like(scale="galactic")


class TestNl:
    def test_nl_profile(self):
        scenario = nl_like(scale="tiny", seed=3)
        assert scenario.profile.name == "nl"
        assert scenario.profile.multiplier_for("NL") > 10

    def test_nl_sites(self):
        scenario = nl_like(scale="tiny", seed=3)
        assert scenario.service.site_codes == ["AMS", "IAD"]


class TestAtlasSizing:
    def test_vp_count_tracks_coverage_ratio(self, broot_tiny):
        responsive = sum(
            1 for block in broot_tiny.internet.blocks
            if broot_tiny.internet.host_model.is_stable_responder(
                block, country_of_block(broot_tiny.internet, block)
            )
        )
        expected = max(25, int(responsive / 430.0))
        assert len(broot_tiny.atlas.vps) == expected

    def test_vp_count_override(self):
        scenario = broot_like(scale="tiny", seed=7, vp_count=55)
        assert len(scenario.atlas.vps) == 55
