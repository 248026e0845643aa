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
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.geo.geodb import GeoColumns, GeoDatabase
from repro.geo.regions import COUNTRIES, Country, country_by_code
from repro.netaddr.prefix import Prefix
from repro.rng import derive_rng
from repro.topology.allocator import PrefixAllocator
from repro.topology.asys import ASTier, SeededAS
from repro.topology.hosts import HostModelConfig
from repro.topology.internet import Internet


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
    """Single-use builder holding generation state: the Internet's tables,
    row by row."""

    def __init__(self, config: TopologyConfig) -> None:
        self.config = config
        # ``(asn, tier, name, country, flipper)`` per AS (ASN = row + 1), its
        # PoP ids and the ASN of each name; ``(asn, country, lat, lon)`` per PoP
        # (pop_id = row); every edge ``(a, b) -> peering`` in insertion order.
        self.as_rows: List[tuple] = []
        self.pops_of: List[List[int]] = []
        self.asn_of: Dict[str, int] = {}
        self.pop_rows: List[tuple] = []
        self.edges: Dict[Tuple[int, int], bool] = {}
        # (network, length, origin) of each announced prefix, then the
        # populated blocks and their PoPs, appended prefix by prefix.
        self._prefixes = array("q")
        self._blocks = array("q")
        self._pop_ids = array("q")
        self.allocator = PrefixAllocator(Prefix(self.config.address_pool))
        self.tier1_asns: List[int] = []
        self.transit_asns: List[int] = []
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
        lat, lon = self._sample_point_in(country_by_code(country_code), rng)
        self.pop_rows.append((asn, country_code, lat, lon))
        return len(self.pop_rows) - 1

    def _new_as(
        self,
        tier: str,
        name: str,
        country_code: str,
        pop_countries: Sequence[str],
        rng,
        flipper: bool = False,
    ) -> int:
        asn = len(self.as_rows) + 1
        self.as_rows.append((asn, tier, name, country_code, flipper))
        self.asn_of.setdefault(name, asn)
        self.pops_of.append([self._new_pop(asn, code, rng) for code in pop_countries])
        return asn

    def _home(self, asn: int) -> Country:
        return country_by_code(self.as_rows[asn - 1][3])

    def _linked(self, a: int, b: int) -> bool:
        return (a, b) in self.edges or (b, a) in self.edges

    def _link(self, a: int, b: int, peering: bool = False) -> None:
        """Record that ``a`` buys transit from ``b``, or peers with it."""
        if a == b or self._linked(a, b):
            raise TopologyError(f"self-loop or duplicate relationship AS{a}-AS{b}")
        self.edges[a, b] = peering

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
            self.tier1_asns.append(self._new_as(
                ASTier.TIER1, f"TIER1-{index}", home, pop_countries, rng
            ))
        # Tier-1 clique: full-mesh settlement-free peering.
        for i, a in enumerate(self.tier1_asns):
            for b in self.tier1_asns[i + 1 :]:
                self._link(a, b, peering=True)

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
            asn = self._new_as(
                ASTier.TRANSIT, f"TRANSIT-{index}", home.code, pop_countries, rng
            )
            providers = rng.sample(self.tier1_asns, k=min(len(self.tier1_asns), rng.randint(1, 2)))
            for provider in providers:
                self._link(asn, provider)
            # Buy from earlier transits too (keeps hierarchy acyclic) —
            # deeper chains spread path costs, which is what makes
            # prepending shift catchments gradually rather than all at once.
            for _ in range(rng.randint(0, 2)):
                if not self.transit_asns:
                    break
                upstream = rng.choice(self.transit_asns)
                if not self._linked(asn, upstream):
                    self._link(asn, upstream)
            self.transit_asns.append(asn)
        # Same-region transit peering.
        for i, a in enumerate(self.transit_asns):
            for b in self.transit_asns[i + 1 :]:
                if self._linked(a, b):
                    continue
                same_region = self._home(a).region == self._home(b).region
                probability = self.config.transit_peering_probability
                if same_region and rng.random() < probability:
                    self._link(a, b, peering=True)

    def _transit_preference(self, country: Country, rng) -> List[int]:
        """Transit providers ordered: same country, same region, anywhere."""
        key = (country.code, len(self.transit_asns))  # transit_asns only grows
        groups = self._preference_groups.get(key)
        if groups is None:
            homes = [(asn, self._home(asn)) for asn in self.transit_asns]
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
            asn = self._new_as(
                ASTier.STUB, f"STUB-{index}", home.code, pop_countries, rng
            )
            if rng.random() < self.config.stub_multihome_fraction:
                provider_count = rng.randint(2, 3)
            else:
                provider_count = 1
            preferences = self._transit_preference(home, rng)
            for provider in preferences[:provider_count]:
                self._link(asn, provider)

    def build_seeded(self) -> None:
        rng = derive_rng(self.config.seed, "seeded")
        for spec in self.config.seeded_ases:
            asn = self._new_as(
                spec.tier,
                spec.name,
                spec.country_code,
                spec.pop_countries,
                rng,
                flipper=spec.flipper,
            )
            home = country_by_code(spec.country_code)
            if spec.tier == ASTier.TIER1:
                for other in self.tier1_asns:
                    self._link(asn, other, peering=True)
                self.tier1_asns.append(asn)
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
                if not self._linked(asn, provider):
                    self._link(asn, provider)
            # Regional peering fabric: the seeded AS peers with most
            # transits whose home country lies in the listed regions
            # (how an academic exchange like AMPATH blankets South
            # America).  Peer routes beat provider routes, so the whole
            # region gravitates to this AS's announcements.
            for region in spec.peer_regions:
                for transit in list(self.transit_asns):
                    if self._home(transit).region != region or self._linked(asn, transit):
                        continue
                    if rng.random() < 0.75:
                        self._link(asn, transit, peering=True)
            if spec.tier == ASTier.TRANSIT:
                self.transit_asns.append(asn)

    def _resolve_name(self, name: str) -> int:
        """ASN of a previously-created AS by generated name."""
        if name not in self.asn_of:
            raise ConfigurationError(f"seeded provider {name!r} does not exist (yet)")
        return self.asn_of[name]

    # -- prefixes and blocks ----------------------------------------------

    def _announce(self, asn: int, length: int, density: float, rng) -> None:
        prefix = self.allocator.allocate(length)
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
        offsets = sorted(rng.sample(range(span), target)) if target < span else range(span)
        self._blocks.extend([start_block + offset for offset in offsets])
        self._pop_ids.extend([rng.choice(self.pops_of[asn - 1]) for _ in offsets])
        self._prefixes.extend((prefix.network, prefix.length, asn))

    def build_prefixes(self) -> None:
        rng = derive_rng(self.config.seed, "prefix")
        seeded_names = {spec.name: spec for spec in self.config.seeded_ases}
        for asn, tier, name, _, _ in self.as_rows:
            spec = seeded_names.get(name)
            if spec is not None:
                for length, count in spec.prefix_plan:
                    for _ in range(count):
                        self._announce(asn, length, spec.block_density, rng)
                continue
            low, high = _PREFIX_COUNT_RANGE[tier]
            mix = _PREFIX_MIX[tier]
            lengths = [entry[0] for entry in mix]
            weights = [entry[1] for entry in mix]
            for _ in range(rng.randint(low, high)):
                length = rng.choices(lengths, weights=weights, k=1)[0]
                self._announce(asn, length, _BLOCK_DENSITY[tier], rng)

    def build_geo(self, blocks: np.ndarray, pop_ids: np.ndarray) -> GeoDatabase:
        """Locate each block near its PoP, in ascending block order."""
        rng = derive_rng(self.config.seed, "geo")
        random, gauss, unlocatable = rng.random, rng.gauss, self.config.unlocatable_fraction
        rows, lats, lons = array("q"), array("d"), array("d")
        for row, pop_id in enumerate(pop_ids.tolist()):
            if random() < unlocatable:
                continue
            _, _, latitude, longitude = self.pop_rows[pop_id]
            rows.append(row)
            lats.append(gauss(latitude, 1.5))
            lons.append(gauss(longitude, 1.5))
        rows = np.frombuffer(rows, dtype=np.int64)
        located = pop_ids[rows]
        # Clamp each draw into its PoP's country, then onto the globe.
        homes = [country_by_code(country) for _, country, _, _ in self.pop_rows]
        bounds = np.array([(*home.lat_range, *home.lon_range) for home in homes])
        lat_low, lat_high, lon_low, lon_high = bounds[located].T
        codes = np.array([home.code for home in homes])
        countries, country_index = np.unique(codes[located], return_inverse=True)
        return GeoDatabase(GeoColumns(
            blocks[rows],
            np.clip(np.clip(np.frombuffer(lats), lat_low, lat_high), -89.9, 89.9),
            np.clip(np.clip(np.frombuffer(lons), lon_low, lon_high), -179.9, 179.9),
            country_index.astype(np.int32),
            tuple(countries.tolist()),
        ))

    def finish(self) -> Internet:
        # The allocator hands prefixes out upward and offsets are sorted,
        # so the blocks arrive ascending; each prefix's are a contiguous run
        # (the Internet hands each its run).
        blocks = np.frombuffer(self._blocks, dtype=np.int64)
        blocks.setflags(write=False)  # before any view of it is taken
        if not np.all(np.diff(blocks) > 0):
            raise TopologyError("populated blocks are not strictly ascending")
        pop_ids = np.frombuffer(self._pop_ids, dtype=np.int64)
        pop_table = list(zip(*self.pop_rows))
        asns = np.array(pop_table[0], dtype=np.int64)[pop_ids]
        edges = [(a, b, int(peering)) for (a, b), peering in self.edges.items()]
        return Internet(
            self.config.seed, list(zip(*self.as_rows)), pop_table,
            np.frombuffer(self._prefixes, dtype=np.int64).reshape(-1, 3).T,
            np.array(edges, dtype=np.int64).reshape(-1, 3).T, (blocks, asns, pop_ids),
            self.build_geo(blocks, pop_ids), self.config.host_config,
        )


def build_internet(config: Optional[TopologyConfig] = None) -> Internet:
    """Generate a synthetic Internet from ``config`` (defaults if None)."""
    config = config or TopologyConfig()
    builder = _Builder(config)
    builder.build_tier1()
    builder.build_transit()
    builder.build_stubs()
    builder.build_seeded()
    builder.build_prefixes()
    return builder.finish()
