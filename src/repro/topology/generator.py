"""Synthetic Internet generator.

Builds a deterministic Internet from a :class:`TopologyConfig`:

* a tier-1 clique, regional transit providers, and stub (edge) ASes,
  with Gao-Rexford customer/provider/peer relationships;
* *seeded* ASes — fully specified ASes the caller needs to exist, such
  as anycast-site upstreams (Table 3) or a Chinanet-like flipping
  eyeball giant (Table 7);
* BGP-announced prefixes per AS with a realistic length mix
  (short prefixes few, long prefixes many — the Figure 8 x-axis);
* populated /24 blocks inside each prefix, assigned to the origin AS's
  PoPs and geolocated near them.

Everything derives from ``config.seed`` through labelled RNG streams,
so two runs with equal configs produce identical Internets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.geodb import GeoColumns, GeoDatabase, GeoRecord
from repro.geo.regions import COUNTRIES, Country, country_by_code
from repro.netaddr.prefix import Prefix
from repro.rng import derive_rng
from repro.topology.allocator import PrefixAllocator
from repro.topology.asys import ASTier, AutonomousSystem, PoP
from repro.topology.hosts import HostModel, HostModelConfig
from repro.topology.internet import Internet
from repro.topology.prefixes import AnnouncedPrefix
from repro.topology.relationships import RelationshipGraph



@dataclass(frozen=True)
class SeededAS:
    """An AS the caller requires to exist with exact properties.

    ``prefix_plan`` lists ``(prefix_length, count)`` pairs to announce;
    ``pop_countries`` creates one PoP per listed country (repeats allowed
    for multiple PoPs in one country).
    """

    name: str
    tier: str
    country_code: str
    pop_countries: Tuple[str, ...]
    prefix_plan: Tuple[Tuple[int, int], ...]
    flipper: bool = False
    block_density: float = 0.5
    provider_names: Tuple[str, ...] = ()
    peer_regions: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tier not in ASTier.ALL:
            raise ConfigurationError(f"seeded AS {self.name!r}: bad tier {self.tier!r}")
        if not self.pop_countries:
            raise ConfigurationError(f"seeded AS {self.name!r}: needs >= 1 PoP")
        for length, count in self.prefix_plan:
            if not 8 <= length <= 24 or count < 1:
                raise ConfigurationError(
                    f"seeded AS {self.name!r}: bad prefix plan entry ({length}, {count})"
                )


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the synthetic Internet."""

    seed: int = 1
    tier1_count: int = 8
    transit_count: int = 60
    stub_count: int = 600
    transit_multi_pop_fraction: float = 0.60
    stub_multi_pop_fraction: float = 0.25
    stub_multihome_fraction: float = 0.45
    transit_peering_probability: float = 0.10
    max_blocks_per_prefix: int = 64
    block_density_scale: float = 1.0
    address_pool: str = "8.0.0.0/5"
    unlocatable_fraction: float = 0.0002
    seeded_ases: Tuple[SeededAS, ...] = ()
    host_config: Optional[HostModelConfig] = None

    def __post_init__(self) -> None:
        if self.tier1_count < 1:
            raise ConfigurationError("tier1_count must be >= 1")
        if self.transit_count < 1:
            raise ConfigurationError("transit_count must be >= 1")
        if self.stub_count < 0:
            raise ConfigurationError("stub_count must be >= 0")
        for name in (
            "transit_multi_pop_fraction",
            "stub_multi_pop_fraction",
            "stub_multihome_fraction",
            "transit_peering_probability",
            "unlocatable_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name}={value} must be in [0, 1]")
        if self.max_blocks_per_prefix < 1:
            raise ConfigurationError("max_blocks_per_prefix must be >= 1")
        if self.block_density_scale <= 0:
            raise ConfigurationError("block_density_scale must be positive")
        Prefix(self.address_pool)  # validates eagerly (raises AddressError)


# Prefix length mixes per tier: (length, relative weight).  Skewed so
# that long prefixes dominate counts, as in the paper's Figure 8.
_PREFIX_MIX = {
    ASTier.TIER1: [(12, 1), (13, 2), (14, 3), (15, 4), (16, 6)],
    ASTier.TRANSIT: [(14, 1), (15, 2), (16, 4), (17, 4), (18, 6), (19, 8), (20, 9)],
    ASTier.STUB: [(19, 2), (20, 4), (21, 6), (22, 10), (23, 9), (24, 8)],
}

_PREFIX_COUNT_RANGE = {
    ASTier.TIER1: (2, 5),
    ASTier.TRANSIT: (2, 8),
    ASTier.STUB: (1, 3),
}

_BLOCK_DENSITY = {
    ASTier.TIER1: 0.08,
    ASTier.TRANSIT: 0.25,
    ASTier.STUB: 0.70,
}

_POP_COUNT_RANGE = {ASTier.TIER1: (6, 10), ASTier.TRANSIT: (1, 4), ASTier.STUB: (1, 1)}


class _Builder:
    """Single-use builder holding generation state."""

    def __init__(self, config: TopologyConfig) -> None:
        self.config = config
        self.ases: Dict[int, AutonomousSystem] = {}
        self.pops: List[PoP] = []
        self.graph = RelationshipGraph()
        self.announced: List[AnnouncedPrefix] = []
        self.block_assignment: Dict[int, Tuple[int, int]] = {}
        self.geodb = GeoDatabase()
        self.allocator = PrefixAllocator(Prefix(self.config.address_pool))
        self.next_asn = 1
        self.tier1_asns: List[int] = []
        self.transit_asns: List[int] = []
        self.stub_asns: List[int] = []
        self.seeded_asns: Dict[str, int] = {}
        self._preference_groups: Dict[Tuple[str, int], Tuple[List[int], ...]] = {}
        weights = [country.internet_weight for country in COUNTRIES]
        self._countries = COUNTRIES
        self._country_weights = weights

    # -- sampling helpers -------------------------------------------------

    def _sample_country(self, rng) -> Country:
        return rng.choices(self._countries, weights=self._country_weights, k=1)[0]

    def _sample_point_in(self, country: Country, rng) -> Tuple[float, float]:
        lat = rng.uniform(*country.lat_range)
        lon = rng.uniform(*country.lon_range)
        return lat, lon

    def _new_pop(self, asn: int, country_code: str, rng) -> int:
        country = country_by_code(country_code)
        lat, lon = self._sample_point_in(country, rng)
        pop = PoP(len(self.pops), asn, country_code, lat, lon)
        self.pops.append(pop)
        return pop.pop_id

    def _new_as(
        self,
        tier: str,
        name: str,
        country_code: str,
        pop_countries: Sequence[str],
        rng,
        flipper: bool = False,
    ) -> AutonomousSystem:
        asn = self.next_asn
        self.next_asn += 1
        asys = AutonomousSystem(asn, tier, name, country_code, [], flipper)
        asys.pop_ids = [self._new_pop(asn, code, rng) for code in pop_countries]
        self.ases[asn] = asys
        return asys

    # -- AS population ----------------------------------------------------

    def build_tier1(self) -> None:
        rng = derive_rng(self.config.seed, "tier1")
        hubs = ["US", "US", "GB", "DE", "FR", "JP", "NL", "SE", "IN", "SG", "AU", "BR"]
        for index in range(self.config.tier1_count):
            home = hubs[index % len(hubs)]
            pop_count = rng.randint(*_POP_COUNT_RANGE[ASTier.TIER1])
            pop_countries = [home] + [
                self._sample_country(rng).code for _ in range(pop_count - 1)
            ]
            asys = self._new_as(
                ASTier.TIER1, f"TIER1-{index}", home, pop_countries, rng
            )
            self.tier1_asns.append(asys.asn)
        # Tier-1 clique: full-mesh settlement-free peering.
        for i, a in enumerate(self.tier1_asns):
            for b in self.tier1_asns[i + 1 :]:
                self.graph.add_peering(a, b)

    def build_transit(self) -> None:
        rng = derive_rng(self.config.seed, "transit")
        for index in range(self.config.transit_count):
            home = self._sample_country(rng)
            if rng.random() < self.config.transit_multi_pop_fraction:
                pop_count = rng.randint(2, _POP_COUNT_RANGE[ASTier.TRANSIT][1])
            else:
                pop_count = 1
            region_mates = [c for c in self._countries if c.region == home.region]
            pop_countries = [home.code] + [
                rng.choice(region_mates).code for _ in range(pop_count - 1)
            ]
            asys = self._new_as(
                ASTier.TRANSIT, f"TRANSIT-{index}", home.code, pop_countries, rng
            )
            providers = rng.sample(self.tier1_asns, k=min(len(self.tier1_asns), rng.randint(1, 2)))
            for provider in providers:
                self.graph.add_customer_provider(asys.asn, provider)
            # Buy from earlier transits too (keeps hierarchy acyclic) —
            # deeper chains spread path costs, which is what makes
            # prepending shift catchments gradually rather than all at once.
            for _ in range(rng.randint(0, 2)):
                if not self.transit_asns:
                    break
                upstream = rng.choice(self.transit_asns)
                if not self.graph.has_link(asys.asn, upstream):
                    self.graph.add_customer_provider(asys.asn, upstream)
            self.transit_asns.append(asys.asn)
        # Same-region transit peering.
        for i, a in enumerate(self.transit_asns):
            for b in self.transit_asns[i + 1 :]:
                if self.graph.has_link(a, b):
                    continue
                same_region = (
                    country_by_code(self.ases[a].country_code).region
                    == country_by_code(self.ases[b].country_code).region
                )
                probability = self.config.transit_peering_probability
                if same_region and rng.random() < probability:
                    self.graph.add_peering(a, b)

    def _transit_preference(self, country: Country, rng) -> List[int]:
        """Transit providers ordered: same country, same region, anywhere."""
        key = (country.code, len(self.transit_asns))  # transit_asns only grows
        groups = self._preference_groups.get(key)
        if groups is None:
            homes = [
                (asn, country_by_code(self.ases[asn].country_code)) for asn in self.transit_asns
            ]
            region = [(asn, home.code) for asn, home in homes if home.region == country.region]
            groups = self._preference_groups[key] = (
                [asn for asn, code in region if code == country.code],
                [asn for asn, code in region if code != country.code],
                [asn for asn, home in homes if home.region != country.region],
            )
        ordered: List[int] = []
        for group in groups:
            shuffled = list(group)
            rng.shuffle(shuffled)
            ordered += shuffled
        return ordered

    def build_stubs(self) -> None:
        rng = derive_rng(self.config.seed, "stub")
        for index in range(self.config.stub_count):
            home = self._sample_country(rng)
            # Most stubs are single-PoP; some regional ISPs run two.
            pop_countries = [home.code]
            if rng.random() < self.config.stub_multi_pop_fraction:
                pop_countries.append(home.code)
            asys = self._new_as(
                ASTier.STUB, f"STUB-{index}", home.code, pop_countries, rng
            )
            if rng.random() < self.config.stub_multihome_fraction:
                provider_count = rng.randint(2, 3)
            else:
                provider_count = 1
            preferences = self._transit_preference(home, rng)
            for provider in preferences[:provider_count]:
                self.graph.add_customer_provider(asys.asn, provider)
            self.stub_asns.append(asys.asn)

    def build_seeded(self) -> None:
        rng = derive_rng(self.config.seed, "seeded")
        for spec in self.config.seeded_ases:
            asys = self._new_as(
                spec.tier,
                spec.name,
                spec.country_code,
                spec.pop_countries,
                rng,
                flipper=spec.flipper,
            )
            self.seeded_asns[spec.name] = asys.asn
            home = country_by_code(spec.country_code)
            if spec.tier == ASTier.TIER1:
                for other in self.tier1_asns:
                    self.graph.add_peering(asys.asn, other)
                self.tier1_asns.append(asys.asn)
                continue
            # Transit and stub seeded ASes are multihomed for resilience.
            # Explicit provider_names pin connectivity (scenarios use this
            # to control how strong each anycast upstream is); otherwise
            # pick 2 providers preferring local transit, then tier-1.
            if spec.provider_names:
                providers = [self._resolve_name(name) for name in spec.provider_names]
            else:
                preferences = self._transit_preference(home, rng) or list(self.tier1_asns)
                providers = preferences[:2] if len(preferences) >= 2 else preferences
            for provider in providers:
                if not self.graph.has_link(asys.asn, provider):
                    self.graph.add_customer_provider(asys.asn, provider)
            # Regional peering fabric: the seeded AS peers with most
            # transits whose home country lies in the listed regions
            # (how an academic exchange like AMPATH blankets South
            # America).  Peer routes beat provider routes, so the whole
            # region gravitates to this AS's announcements.
            for region in spec.peer_regions:
                for transit in list(self.transit_asns):
                    home = country_by_code(self.ases[transit].country_code)
                    if home.region != region or self.graph.has_link(asys.asn, transit):
                        continue
                    if rng.random() < 0.75:
                        self.graph.add_peering(asys.asn, transit)
            if spec.tier == ASTier.TRANSIT:
                self.transit_asns.append(asys.asn)
            else:
                self.stub_asns.append(asys.asn)

    def _resolve_name(self, name: str) -> int:
        """ASN of a previously-created AS by generated name."""
        for asn, asys in self.ases.items():
            if asys.name == name:
                return asn
        raise ConfigurationError(f"seeded provider {name!r} does not exist (yet)")

    # -- prefixes and blocks ----------------------------------------------

    def _announce(
        self, asys: AutonomousSystem, length: int, density: float, rng
    ) -> None:
        prefix = self.allocator.allocate(length)
        entry = AnnouncedPrefix(prefix, asys.asn)
        span = prefix.block_count
        target = max(
            1,
            min(
                self.config.max_blocks_per_prefix,
                int(math.ceil(span * density * self.config.block_density_scale)),
            ),
        )
        target = min(target, span)
        start_block = prefix.network >> 8
        offsets = rng.sample(range(span), target) if target < span else list(range(span))
        for offset in sorted(offsets):
            block = start_block + offset
            pop_id = rng.choice(asys.pop_ids)
            self.block_assignment[block] = (asys.asn, pop_id)
            entry.populated_blocks.append(block)
        self.announced.append(entry)

    def build_prefixes(self) -> None:
        rng = derive_rng(self.config.seed, "prefix")
        seeded_names = {spec.name: spec for spec in self.config.seeded_ases}
        for asn in sorted(self.ases):
            asys = self.ases[asn]
            spec = seeded_names.get(asys.name)
            if spec is not None:
                for length, count in spec.prefix_plan:
                    for _ in range(count):
                        self._announce(asys, length, spec.block_density, rng)
                continue
            low, high = _PREFIX_COUNT_RANGE[asys.tier]
            mix = _PREFIX_MIX[asys.tier]
            lengths = [entry[0] for entry in mix]
            weights = [entry[1] for entry in mix]
            for _ in range(rng.randint(low, high)):
                length = rng.choices(lengths, weights=weights, k=1)[0]
                self._announce(asys, length, _BLOCK_DENSITY[asys.tier], rng)

    def build_geo(self) -> None:
        rng = derive_rng(self.config.seed, "geo")
        blocks: List[int] = []
        pop_ids: List[int] = []
        lats: List[float] = []
        lons: List[float] = []
        for block in sorted(self.block_assignment):
            if rng.random() < self.config.unlocatable_fraction:
                continue
            pop = self.pops[self.block_assignment[block][1]]
            blocks.append(block)
            pop_ids.append(pop.pop_id)
            lats.append(rng.gauss(pop.latitude, 1.5))
            lons.append(rng.gauss(pop.longitude, 1.5))
        # Clamp each draw into its PoP's country, then onto the globe.
        homes = [country_by_code(pop.country_code) for pop in self.pops]
        bounds = np.array([(*home.lat_range, *home.lon_range) for home in homes])
        lat_low, lat_high, lon_low, lon_high = bounds[pop_ids].T
        latitudes = np.clip(np.clip(lats, lat_low, lat_high), -89.9, 89.9)
        longitudes = np.clip(np.clip(lons, lon_low, lon_high), -179.9, 179.9)
        codes = [self.pops[pop_id].country_code for pop_id in pop_ids]
        self.geodb.add_many(
            zip(blocks, map(GeoRecord, codes, latitudes.tolist(), longitudes.tolist()))
        )
        self.geodb.attach_columns(GeoColumns.from_rows(blocks, codes, latitudes, longitudes))

    def finish(self) -> Internet:
        host_model = HostModel(self.config.seed, self.config.host_config)
        internet = Internet(
            self.config.seed,
            self.ases,
            self.pops,
            self.graph,
            self.announced,
            self.block_assignment,
            self.geodb,
            host_model,
        )
        return internet


def build_internet(config: Optional[TopologyConfig] = None) -> Internet:
    """Generate a synthetic Internet from ``config`` (defaults if None)."""
    config = config or TopologyConfig()
    builder = _Builder(config)
    builder.build_tier1()
    builder.build_transit()
    builder.build_stubs()
    builder.build_seeded()
    builder.build_prefixes()
    builder.build_geo()
    return builder.finish()
