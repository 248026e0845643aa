"""Tests for sites, services, and catchment maps."""

from __future__ import annotations

import pytest

from repro.anycast.catchment import CatchmentMap
from repro.anycast.service import AnycastService
from repro.anycast.site import AnycastSite
from repro.errors import ConfigurationError
from repro.netaddr.prefix import Prefix


def make_service():
    return AnycastService(
        "svc.example",
        Prefix("192.0.2.0/24"),
        [
            AnycastSite("LAX", "Los Angeles", "US", 34.0, -118.0, 100),
            AnycastSite("MIA", "Miami", "US", 25.8, -80.2, 200),
        ],
    )


class TestService:
    def test_site_lookup(self):
        service = make_service()
        assert service.site("LAX").upstream_asn == 100
        assert service.site_codes == ["LAX", "MIA"]

    def test_unknown_site(self):
        with pytest.raises(ConfigurationError):
            make_service().site("XXX")

    def test_default_measurement_address(self):
        service = make_service()
        assert service.measurement_address == Prefix("192.0.2.0/24").network + 1

    def test_measurement_address_must_be_inside(self):
        with pytest.raises(ConfigurationError):
            AnycastService(
                "svc",
                Prefix("192.0.2.0/24"),
                [AnycastSite("A", "A", "US", 0, 0, 1)],
                measurement_address=0x01020304,
            )

    def test_needs_sites(self):
        with pytest.raises(ConfigurationError):
            AnycastService("svc", Prefix("192.0.2.0/24"), [])

    def test_duplicate_codes_rejected(self):
        sites = [
            AnycastSite("A", "x", "US", 0, 0, 1),
            AnycastSite("A", "y", "US", 0, 0, 2),
        ]
        with pytest.raises(ConfigurationError):
            AnycastService("svc", Prefix("192.0.2.0/24"), sites)

    def test_default_policy(self):
        policy = make_service().default_policy()
        assert [(entry.site_code, entry.prepend) for entry in policy.announcements] == [
            ("LAX", 0), ("MIA", 0),
        ]

    def test_policy_with_prepends(self):
        policy = make_service().policy(prepends={"MIA": 2})
        assert [entry.prepend for entry in policy.announcements] == [0, 2]

    def test_test_prefix_clone(self):
        service = make_service()
        clone = service.test_prefix_clone(Prefix("192.0.3.0/24"))
        assert clone.site_codes == service.site_codes
        assert clone.prefix == Prefix("192.0.3.0/24")
        assert clone.measurement_address == Prefix("192.0.3.0/24").network + 1

    def test_upstreams(self):
        assert make_service().upstreams() == {"LAX": 100, "MIA": 200}


class TestCatchmentMap:
    def test_counts_and_fractions(self):
        catchment = CatchmentMap.from_mapping(["A", "B"], {1: "A", 2: "A", 3: "B", 4: "A"})
        assert catchment.counts() == {"A": 3, "B": 1}
        assert catchment.fraction_of("A") == 0.75

    def test_empty_fractions(self):
        catchment = CatchmentMap.from_mapping(["A"], {})
        assert catchment.fractions() == {"A": 0.0}

    def test_site_of(self):
        catchment = CatchmentMap.from_mapping(["A"], {1: "A"})
        assert catchment.site_of(1) == "A"
        assert catchment.site_of(2) is None
        assert 1 in catchment
        assert 2 not in catchment

    def test_blocks_of_site(self):
        catchment = CatchmentMap.from_mapping(["A", "B"], {1: "A", 2: "B", 3: "A"})
        assert sorted(catchment.blocks_of_site("A")) == [1, 3]

    def test_restrict(self):
        catchment = CatchmentMap.from_mapping(["A", "B"], {1: "A", 2: "B", 3: "A"})
        restricted = catchment.restrict([1, 2, 99])
        assert len(restricted) == 2
        assert restricted.site_of(3) is None

    def test_diff_categories(self):
        earlier = CatchmentMap.from_mapping(["A", "B"], {1: "A", 2: "A", 3: "B"})
        later = CatchmentMap.from_mapping(["A", "B"], {1: "A", 2: "B", 4: "A"})
        diff = earlier.diff(later)
        assert diff.stable == 1          # block 1
        assert diff.flipped == 1         # block 2
        assert diff.disappeared == 1     # block 3
        assert diff.appeared == 1        # block 4
        assert diff.flipped_blocks == (2,)

    def test_diff_identical(self):
        catchment = CatchmentMap.from_mapping(["A"], {1: "A", 2: "A"})
        diff = catchment.diff(catchment)
        assert diff.stable == 2
        assert diff.flipped == diff.appeared == diff.disappeared == 0
