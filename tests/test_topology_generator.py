"""Tests for the synthetic Internet generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bgp.reference import has_block, pop_of_block
from repro.errors import ConfigurationError, TopologyError
from repro.oracle.responder import country_of_block
from repro.topology.asys import ASTier
from repro.topology.generator import SeededAS, TopologyConfig, build_internet
from repro.topology.validate import overlaps


@pytest.fixture(scope="module")
def internet():
    return build_internet(
        TopologyConfig(
            seed=5,
            tier1_count=4,
            transit_count=15,
            stub_count=70,
            max_blocks_per_prefix=8,
            seeded_ases=(
                SeededAS("GIANT", "transit", "CN", ("CN", "CN"), ((16, 2),),
                         flipper=True, block_density=0.3),
                SeededAS("PINNED", "stub", "NL", ("NL",), ((22, 1),),
                         provider_names=("TIER1-0",)),
            ),
        )
    )


class TestStructure:
    def test_counts(self, internet):
        tiers = [asys.tier for asys in internet.ases.values()]
        assert tiers.count(ASTier.TIER1) == 4
        assert tiers.count(ASTier.TRANSIT) == 15 + 1  # +GIANT
        assert tiers.count(ASTier.STUB) == 70 + 1  # +PINNED

    def test_tier1_clique(self, internet):
        tier1 = [asn for asn, a in internet.ases.items() if a.tier == ASTier.TIER1]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert internet.graph.has_link(a, b)

    def test_every_non_tier1_has_provider(self, internet):
        for asn, asys in internet.ases.items():
            if asys.tier != ASTier.TIER1:
                assert internet.graph.providers_of(asn), f"{asys.name} has no provider"

    def test_provider_hierarchy_acyclic(self, internet):
        # Walk up from every AS; must terminate (no provider cycles).
        for start in internet.ases:
            seen = set()
            frontier = [start]
            depth = 0
            while frontier and depth < 50:
                depth += 1
                frontier = [
                    provider
                    for asn in frontier
                    for provider in internet.graph.providers_of(asn)
                    if provider not in seen and not seen.add(provider)
                ]
            assert depth < 50, "provider chain did not terminate"

    def test_seeded_ases_exist(self, internet):
        giant = internet.ases[internet.find_asn_by_name("GIANT")]
        assert giant.flipper
        assert giant.country_code == "CN"
        assert len(giant.pop_ids) == 2

    def test_seeded_provider_pinning(self, internet):
        pinned = internet.find_asn_by_name("PINNED")
        tier1_0 = internet.find_asn_by_name("TIER1-0")
        assert tier1_0 in internet.graph.providers_of(pinned)

    def test_unknown_name_raises(self, internet):
        with pytest.raises(TopologyError):
            internet.find_asn_by_name("NOPE")


class TestPrefixes:
    def test_no_overlapping_announcements(self, internet):
        announced = sorted(internet.announced, key=lambda e: e.prefix)
        for earlier, later in zip(announced, announced[1:]):
            assert not overlaps(earlier.prefix, later.prefix)

    def test_blocks_inside_their_prefix(self, internet):
        for entry in internet.announced:
            for block in entry.populated_blocks:
                assert entry.prefix.contains_address(block << 8)

    def test_block_assignment_consistent(self, internet):
        for entry in internet.announced:
            blocks = np.array(entry.populated_blocks, dtype=np.int64)
            assert (internet.asns_of_blocks(blocks) == entry.origin_asn).all()

    def test_lpm_resolves_blocks(self, internet):
        blocks = np.array(internet.blocks[:200], dtype=np.int64)
        for block, index in zip(blocks.tolist(), internet.announced_index_of(blocks).tolist()):
            assert index >= 0
            assert block in internet.announced[index].populated_blocks

    def test_longer_prefixes_more_numerous(self, internet):
        lengths = [entry.length for entry in internet.announced]
        short = sum(1 for length in lengths if length <= 16)
        long = sum(1 for length in lengths if length >= 20)
        assert long > short

    def test_seeded_prefix_plan_respected(self, internet):
        giant = internet.find_asn_by_name("GIANT")
        plans = [entry for entry in internet.announced if entry.origin_asn == giant]
        assert len(plans) == 2
        assert all(entry.length == 16 for entry in plans)


class TestBlocksAndGeo:
    def test_block_pop_belongs_to_as(self, internet):
        blocks = list(internet.blocks)[:200]
        origins = internet.asns_of_blocks(np.array(blocks, dtype=np.int64))
        for block, origin in zip(blocks, origins.tolist()):
            assert pop_of_block(internet, block).asn == origin

    def test_most_blocks_geolocated(self, internet):
        located = sum(1 for b in internet.blocks if internet.geodb.locate(b) is not None)
        assert located >= 0.99 * len(internet)

    def test_block_country_matches_pop(self, internet):
        for block in list(internet.blocks)[:200]:
            country = country_of_block(internet, block)
            if country is not None:
                assert country == pop_of_block(internet, block).country_code

    def test_unpopulated_block_raises(self, internet):
        missing = max(internet.blocks) + 1000
        with pytest.raises(TopologyError):
            internet.asns_of_blocks(np.array([missing]))
        with pytest.raises(TopologyError):
            pop_of_block(internet, missing)
        assert not has_block(internet, missing)


class TestDeterminism:
    def test_same_seed_same_internet(self):
        config = TopologyConfig(seed=31, tier1_count=3, transit_count=8,
                                stub_count=30, max_blocks_per_prefix=4)
        first = build_internet(config)
        second = build_internet(config)
        assert list(first.blocks) == list(second.blocks)
        assert first.summary() == second.summary()
        for asn in first.ases:
            assert first.ases[asn].name == second.ases[asn].name

    def test_different_seed_differs(self):
        base = dict(tier1_count=3, transit_count=8, stub_count=30,
                    max_blocks_per_prefix=4)
        first = build_internet(TopologyConfig(seed=1, **base))
        second = build_internet(TopologyConfig(seed=2, **base))
        assert list(first.blocks) != list(second.blocks)


class TestConfigValidation:
    def test_rejects_zero_tier1(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(tier1_count=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(stub_multihome_fraction=1.5)

    def test_rejects_bad_seeded_tier(self):
        with pytest.raises(ConfigurationError):
            SeededAS("X", "mega", "US", ("US",), ((16, 1),))

    def test_rejects_empty_pops(self):
        with pytest.raises(ConfigurationError):
            SeededAS("X", "stub", "US", (), ((16, 1),))

    def test_rejects_bad_prefix_plan(self):
        with pytest.raises(ConfigurationError):
            SeededAS("X", "stub", "US", ("US",), ((33, 1),))

    def test_unknown_seeded_provider_raises(self):
        with pytest.raises(ConfigurationError):
            build_internet(
                TopologyConfig(
                    seed=1, tier1_count=2, transit_count=2, stub_count=2,
                    seeded_ases=(
                        SeededAS("X", "stub", "US", ("US",), ((22, 1),),
                                 provider_names=("MISSING",)),
                    ),
                )
            )
