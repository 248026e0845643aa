"""Canonical scenarios: B-Root, Tangled, and .nl (paper Tables 1-3).

A :class:`Scenario` bundles a seeded topology, an anycast service with
the paper's sites, a RIPE Atlas deployment, and a workload profile.
Builders come in several scales (``tiny`` for unit tests up to
``large`` for benchmarks); every piece is deterministic in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.anycast.service import AnycastService
from repro.anycast.site import AnycastSite
from repro.atlas.platform import AtlasPlatform
from repro.errors import ConfigurationError
from repro.netaddr.prefix import Prefix
from repro.topology.generator import SeededAS, TopologyConfig, build_internet
from repro.topology.internet import Internet
from repro.traffic.ditl import build_day_load
from repro.traffic.logs import DayLoad
from repro.traffic.workload import WorkloadProfile, nl_profile, root_profile

#: Scale presets: (tier1, transit, stub, max_blocks_per_prefix,
#: block_density_scale).  ``xlarge`` pushes the populated universe
#: past a million /24 blocks — the regime the sharded scan engine
#: and the paper's whole-Internet maps target.
SCALES: Dict[str, Tuple[int, int, int, int, float]] = {
    "tiny": (4, 16, 80, 8, 1.0),
    "small": (6, 50, 400, 24, 1.0),
    "medium": (8, 100, 1200, 48, 1.0),
    "large": (10, 200, 3000, 64, 1.0),
    "xlarge": (12, 2000, 10000, 1024, 8.0),
}

#: Address pools per scale.  ``xlarge`` carves from a /2 (4.2M /24
#: spans) so a million-plus populated blocks fit; every other scale
#: keeps the historical /5 so existing layouts are bit-unchanged.
_DEFAULT_POOL = "8.0.0.0/5"
_SCALE_POOLS: Dict[str, str] = {"xlarge": "64.0.0.0/2"}

#: Verfploeter sees ~430x more blocks than Atlas (paper Table 4); VP
#: counts scale with topology size to preserve roughly that ratio.
_ATLAS_COVERAGE_RATIO = 430.0
_MIN_ATLAS_VPS = 25

# The flipping eyeball giants of paper Table 7, sized so their flip
# shares come out roughly proportional (Chinanet dominates with ~51%).
_GIANTS = (
    SeededAS(
        "CHINANET", "transit", "CN", ("CN", "CN", "CN", "CN"),
        ((14, 2), (16, 5), (18, 6)), flipper=True, block_density=0.35,
    ),
    SeededAS(
        "COMCAST", "transit", "US", ("US", "US"),
        ((16, 1), (18, 1)), flipper=True, block_density=0.30,
    ),
    SeededAS(
        "ITCDELTA", "transit", "RU", ("RU",),
        ((18, 1), (19, 1)), flipper=True, block_density=0.35,
    ),
    SeededAS(
        "ONO-AS", "stub", "ES", ("ES",),
        ((19, 1),), flipper=True, block_density=0.45,
    ),
    SeededAS(
        "ALIBABA", "stub", "CN", ("CN",),
        ((18, 1), (19, 1)), flipper=True, block_density=0.35,
    ),
)


@dataclass
class Scenario:
    """One fully assembled measurement scenario."""

    name: str
    scale: str
    internet: Internet
    service: AnycastService
    atlas: AtlasPlatform
    profile: WorkloadProfile

    def day_load(
        self,
        date_label: str,
        day_index: int = 0,
        target_total_queries: Optional[float] = None,
    ) -> DayLoad:
        """One day of service logs for this scenario's workload."""
        return build_day_load(
            self.internet,
            self.profile,
            date_label,
            day_index=day_index,
            target_total_queries=target_total_queries,
        )


def _scale_params(scale: str) -> Tuple[int, int, int, int, float]:
    try:
        return SCALES[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


def _atlas_vp_count(internet: Internet) -> int:
    responsive = int(internet.stable_mask().sum())
    return max(_MIN_ATLAS_VPS, int(responsive / _ATLAS_COVERAGE_RATIO))


def _site(code: str, name: str, country: str, lat: float, lon: float,
          upstream_asn: int) -> AnycastSite:
    return AnycastSite(code, name, country, lat, lon, upstream_asn)


def broot_like(scale: str = "small", seed: int = 42,
               vp_count: Optional[int] = None) -> Scenario:
    """B-Root after its May 2017 anycast deployment (paper Table 3).

    Two sites: LAX hosted by USC/ISI (upstream modelled on AS226, well
    connected in the US) and MIA hosted by FIU/AMPATH (upstream AS20080,
    modelled with its real-world South-America-heavy connectivity —
    the paper notes AMPATH "is very well connected in Brazil and
    Argentina").
    """
    tier1, transit, stub, blocks_cap, density = _scale_params(scale)
    seeded = _GIANTS + (
        SeededAS(
            # LAX's upstream (modelled on AS226/Los Nettos): multihomed
            # to three majors, so most of the world reaches LAX cheaply.
            "ISI-NET", "transit", "US", ("US",), ((19, 1),),
            provider_names=("TIER1-0", "TIER1-1", "TIER1-3", "TRANSIT-0"),
        ),
        SeededAS(
            # AMPATH: home in BR with a South-America-wide peering
            # fabric — the paper notes it is "very well connected in
            # Brazil and Argentina" but has no direct ties to the west
            # coast of South America (so containment is imperfect).
            "AMPATH", "transit", "BR", ("US", "BR", "AR"), ((19, 1),),
            provider_names=("TIER1-2",),
            peer_regions=("SA",),
        ),
    )
    internet = build_internet(
        TopologyConfig(
            seed=seed,
            tier1_count=tier1,
            transit_count=transit,
            stub_count=stub,
            max_blocks_per_prefix=blocks_cap,
            block_density_scale=density,
            address_pool=_SCALE_POOLS.get(scale, _DEFAULT_POOL),
            seeded_ases=seeded,
        )
    )
    lax_upstream = internet.find_asn_by_name("ISI-NET")
    mia_upstream = internet.find_asn_by_name("AMPATH")
    service = AnycastService(
        "B.root-servers.net",
        Prefix("199.9.14.0/24"),
        [
            _site("LAX", "Los Angeles (USC/ISI)", "US", 34.05, -118.24, lax_upstream),
            _site("MIA", "Miami (FIU/AMPATH)", "US", 25.76, -80.19, mia_upstream),
        ],
    )
    atlas = AtlasPlatform(internet, vp_count or _atlas_vp_count(internet))
    return Scenario("b-root", scale, internet, service, atlas, root_profile())


def tangled_like(scale: str = "small", seed: int = 1337,
                 vp_count: Optional[int] = None) -> Scenario:
    """The nine-site Tangled testbed (paper Table 3).

    Reproduces the paper's structural quirks: three sites (SYD, CDG,
    LHR) share the Vultr upstream AS; Sao Paulo routes through the same
    upstream as Miami (FIU), which can hide its announcements; and the
    Tokyo site's upstream (WIDE) is weakly connected, so it attracts
    little traffic.
    """
    tier1, transit, stub, blocks_cap, density = _scale_params(scale)
    seeded = _GIANTS + (
        SeededAS("VULTR", "transit", "US", ("AU", "FR", "GB"), ((19, 1),),
                 provider_names=("TIER1-0", "TIER1-1")),
        SeededAS("WIDE", "transit", "JP", ("JP",), ((19, 1),),
                 provider_names=("TRANSIT-0",)),
        SeededAS("UT-NET", "transit", "NL", ("NL",), ((19, 1),),
                 provider_names=("TIER1-3",)),
        SeededAS("FIU", "transit", "US", ("US", "BR"), ((19, 1),),
                 provider_names=("TIER1-2",), peer_regions=("SA",)),
        SeededAS("USC-NET", "transit", "US", ("US",), ((19, 1),),
                 provider_names=("TIER1-0",)),
        SeededAS("DKHOST", "transit", "DK", ("DK",), ((19, 1),),
                 provider_names=("TIER1-3",)),
    )
    internet = build_internet(
        TopologyConfig(
            seed=seed,
            tier1_count=tier1,
            transit_count=transit,
            stub_count=stub,
            max_blocks_per_prefix=blocks_cap,
            block_density_scale=density,
            address_pool=_SCALE_POOLS.get(scale, _DEFAULT_POOL),
            seeded_ases=seeded,
        )
    )
    vultr = internet.find_asn_by_name("VULTR")
    fiu = internet.find_asn_by_name("FIU")
    service = AnycastService(
        "tangled.example.net",
        Prefix("198.51.100.0/24"),
        [
            _site("SYD", "Sydney (Vultr)", "AU", -33.87, 151.21, vultr),
            _site("CDG", "Paris (Vultr)", "FR", 48.86, 2.35, vultr),
            _site("HND", "Tokyo (WIDE)", "JP", 35.68, 139.69,
                  internet.find_asn_by_name("WIDE")),
            _site("ENS", "Enschede (U. Twente)", "NL", 52.22, 6.90,
                  internet.find_asn_by_name("UT-NET")),
            _site("LHR", "London (Vultr)", "GB", 51.51, -0.13, vultr),
            _site("MIA", "Miami (FIU)", "US", 25.76, -80.19, fiu),
            _site("IAD", "Washington (USC)", "US", 38.90, -77.04,
                  internet.find_asn_by_name("USC-NET")),
            _site("SAO", "Sao Paulo (FIU)", "BR", -23.55, -46.63, fiu),
            _site("CPH", "Copenhagen (DK Hostmaster)", "DK", 55.68, 12.57,
                  internet.find_asn_by_name("DKHOST")),
        ],
    )
    atlas = AtlasPlatform(internet, vp_count or _atlas_vp_count(internet))
    return Scenario("tangled", scale, internet, service, atlas, root_profile())


def nl_like(scale: str = "small", seed: int = 2017,
            vp_count: Optional[int] = None) -> Scenario:
    """A .nl-style ccTLD with regional load (paper Figure 4b).

    The paper plots the unicast load of four .nl nameservers; here the
    "service" is a two-site stand-in whose interest is purely its
    NL-centric workload profile.
    """
    tier1, transit, stub, blocks_cap, density = _scale_params(scale)
    seeded = _GIANTS + (
        SeededAS("SIDN-NET", "transit", "NL", ("NL",), ((19, 1),),
                 provider_names=("TIER1-0",)),
        SeededAS("SIDN-US", "transit", "US", ("US",), ((19, 1),),
                 provider_names=("TIER1-1",)),
    )
    internet = build_internet(
        TopologyConfig(
            seed=seed,
            tier1_count=tier1,
            transit_count=transit,
            stub_count=stub,
            max_blocks_per_prefix=blocks_cap,
            block_density_scale=density,
            address_pool=_SCALE_POOLS.get(scale, _DEFAULT_POOL),
            seeded_ases=seeded,
        )
    )
    service = AnycastService(
        "nl-anycast.example.net",
        Prefix("203.0.113.0/24"),
        [
            _site("AMS", "Amsterdam (SIDN)", "NL", 52.37, 4.90,
                  internet.find_asn_by_name("SIDN-NET")),
            _site("IAD", "Washington (SIDN)", "US", 38.90, -77.04,
                  internet.find_asn_by_name("SIDN-US")),
        ],
    )
    atlas = AtlasPlatform(internet, vp_count or _atlas_vp_count(internet))
    return Scenario("nl", scale, internet, service, atlas, nl_profile())


#: CDN deployment plan: (site code, city, country, lat, lon, upstream AS name).
_CDN_SITES = (
    ("IAD", "Washington", "US", 38.9, -77.0, "CDN-NA-EAST"),
    ("ORD", "Chicago", "US", 41.9, -87.6, "CDN-NA-EAST"),
    ("SJC", "San Jose", "US", 37.3, -121.9, "CDN-NA-WEST"),
    ("SEA", "Seattle", "US", 47.6, -122.3, "CDN-NA-WEST"),
    ("YYZ", "Toronto", "CA", 43.7, -79.4, "CDN-NA-EAST"),
    ("FRA", "Frankfurt", "DE", 50.1, 8.7, "CDN-EU"),
    ("CDG", "Paris", "FR", 48.9, 2.4, "CDN-EU"),
    ("LHR", "London", "GB", 51.5, -0.1, "CDN-EU"),
    ("AMS", "Amsterdam", "NL", 52.4, 4.9, "CDN-EU"),
    ("MAD", "Madrid", "ES", 40.4, -3.7, "CDN-EU"),
    ("WAW", "Warsaw", "PL", 52.2, 21.0, "CDN-EU"),
    ("GRU", "Sao Paulo", "BR", -23.5, -46.6, "CDN-SA"),
    ("EZE", "Buenos Aires", "AR", -34.6, -58.4, "CDN-SA"),
    ("JNB", "Johannesburg", "ZA", -26.2, 28.0, "CDN-AF"),
    ("CAI", "Cairo", "EG", 30.0, 31.2, "CDN-AF"),
    ("BOM", "Mumbai", "IN", 19.1, 72.9, "CDN-AS"),
    ("NRT", "Tokyo", "JP", 35.7, 139.8, "CDN-AS"),
    ("SIN", "Singapore", "SG", 1.3, 103.8, "CDN-AS"),
    ("HKG", "Hong Kong", "CN", 22.3, 114.2, "CDN-AS"),
    ("SYD", "Sydney", "AU", -33.9, 151.2, "CDN-OC"),
)

_CDN_UPSTREAMS = (
    SeededAS("CDN-NA-EAST", "transit", "US", ("US", "US", "CA"), ((19, 1),),
             provider_names=("TIER1-0", "TIER1-1")),
    SeededAS("CDN-NA-WEST", "transit", "US", ("US", "US"), ((19, 1),),
             provider_names=("TIER1-0", "TIER1-2")),
    SeededAS("CDN-EU", "transit", "DE", ("DE", "FR", "GB", "NL"), ((19, 1),),
             provider_names=("TIER1-1", "TIER1-3")),
    SeededAS("CDN-SA", "transit", "BR", ("BR", "AR"), ((19, 1),),
             provider_names=("TIER1-2",)),
    SeededAS("CDN-AF", "transit", "ZA", ("ZA", "EG"), ((19, 1),),
             provider_names=("TIER1-0",)),
    SeededAS("CDN-AS", "transit", "SG", ("IN", "JP", "SG", "CN"), ((19, 1),),
             provider_names=("TIER1-1", "TIER1-2")),
    SeededAS("CDN-OC", "transit", "AU", ("AU",), ((19, 1),),
             provider_names=("TIER1-3",)),
)


def cdn_like(scale: str = "small", seed: int = 4242,
             vp_count: Optional[int] = None) -> Scenario:
    """A 20-site CDN-style anycast deployment (paper §7 future work).

    The paper is "interested in studying CDN-based anycast systems";
    this scenario provides one: twenty sites on six continents behind
    seven regional upstream ASes, so shared-upstream dynamics (several
    sites per upstream, hot-potato splits) occur at CDN scale.
    """
    tier1, transit, stub, blocks_cap, density = _scale_params(scale)
    internet = build_internet(
        TopologyConfig(
            seed=seed,
            tier1_count=tier1,
            transit_count=transit,
            stub_count=stub,
            max_blocks_per_prefix=blocks_cap,
            block_density_scale=density,
            address_pool=_SCALE_POOLS.get(scale, _DEFAULT_POOL),
            seeded_ases=_GIANTS + _CDN_UPSTREAMS,
        )
    )
    sites = [
        _site(code, f"{city} (CDN)", country, lat, lon,
              internet.find_asn_by_name(upstream))
        for code, city, country, lat, lon, upstream in _CDN_SITES
    ]
    service = AnycastService(
        "cdn.example.net", Prefix("192.0.2.0/24"), sites
    )
    atlas = AtlasPlatform(internet, vp_count or _atlas_vp_count(internet))
    return Scenario("cdn", scale, internet, service, atlas, root_profile())
