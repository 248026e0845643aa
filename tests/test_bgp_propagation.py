"""Tests for Gao-Rexford propagation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import RoutingConfig, compute_routes
from repro.bgp.reference import (
    catchment_map,
    reachable_fraction,
    selection_of,
    site_of_block,
    site_of_pop,
)
from repro.bgp.route import RouteClass
from repro.errors import ConfigurationError, RoutingError
from tests.conftest import CANONICAL_GRID


class TestReachability:
    def test_every_as_selects_a_route(self, tiny_internet, two_site_routing):
        assert reachable_fraction(two_site_routing) == 1.0

    def test_every_block_has_a_site(self, tiny_internet, two_site_routing):
        for block in tiny_internet.blocks:
            assert site_of_block(two_site_routing, block) in ("A", "B")

    def test_unknown_block_unmapped(self, two_site_routing):
        assert site_of_block(two_site_routing, 12345678) is None

    def test_missing_upstream_raises(self, tiny_internet):
        policy = AnnouncementPolicy.uniform({"X": 999_999})
        with pytest.raises(RoutingError):
            compute_routes(tiny_internet, policy)


class TestGaoRexford:
    def test_upstreams_hold_customer_routes(self, tiny_internet, two_site_routing):
        upstream_a = tiny_internet.find_asn_by_name("UP-A")
        selection = selection_of(two_site_routing, upstream_a)
        assert selection.route_class == RouteClass.CUSTOMER
        assert selection.primary_site == "A"
        assert selection.path_length == 1

    def test_providers_of_upstream_prefer_customer_route(
        self, tiny_internet, two_site_routing
    ):
        upstream_a = tiny_internet.find_asn_by_name("UP-A")
        for provider in tiny_internet.graph.providers_of(upstream_a):
            selection = selection_of(two_site_routing, provider)
            assert selection.route_class == RouteClass.CUSTOMER

    def test_customer_class_sticky_under_prepending(self, tiny_internet):
        """Customer routes beat shorter peer/provider routes (local-pref)."""
        upstream_a = tiny_internet.find_asn_by_name("UP-A")
        policy = AnnouncementPolicy.uniform(
            {
                "A": upstream_a,
                "B": tiny_internet.find_asn_by_name("UP-B"),
            },
            prepends={"A": 5},
        )
        routing = compute_routes(tiny_internet, policy)
        providers = tiny_internet.graph.providers_of(upstream_a)
        # Providers of UP-A hear A's (prepended) route as a customer
        # route; unless they also reach B via a customer chain, they
        # must stick with A despite 5 prepends.
        for provider in providers:
            selection = selection_of(routing, provider)
            if selection.route_class == RouteClass.CUSTOMER:
                customer_sites = {
                    route.site_code for route in selection.candidates
                }
                if customer_sites == {"A"}:
                    assert selection.primary_site == "A"

    def test_path_lengths_monotone_from_origin(self, tiny_internet, two_site_routing):
        upstream_a = tiny_internet.find_asn_by_name("UP-A")
        origin_length = selection_of(two_site_routing, upstream_a).path_length
        for provider in tiny_internet.graph.providers_of(upstream_a):
            assert (
                selection_of(two_site_routing, provider).path_length > origin_length
            )


class TestPrepending:
    def test_prepending_monotone(self, tiny_internet):
        upstreams = {
            "A": tiny_internet.find_asn_by_name("UP-A"),
            "B": tiny_internet.find_asn_by_name("UP-B"),
        }
        fractions = []
        for prepend in range(4):
            policy = AnnouncementPolicy.uniform(upstreams, prepends={"A": prepend})
            catchment = catchment_map(compute_routes(tiny_internet, policy))
            fractions.append(catchment.fraction_of("A"))
        assert all(
            later <= earlier + 1e-9 for earlier, later in zip(fractions, fractions[1:])
        ), f"prepending A should monotonically shrink A: {fractions}"
        assert fractions[3] < fractions[0]

    def test_withdrawing_site_clears_catchment(self, tiny_internet):
        upstreams = {
            "A": tiny_internet.find_asn_by_name("UP-A"),
            "B": tiny_internet.find_asn_by_name("UP-B"),
        }
        policy = AnnouncementPolicy.uniform(upstreams, withdrawn=["A"])
        catchment = catchment_map(compute_routes(tiny_internet, policy))
        assert catchment.fraction_of("B") == 1.0


class TestDeterminismAndStability:
    def test_same_policy_same_catchment(self, tiny_internet):
        upstreams = {
            "A": tiny_internet.find_asn_by_name("UP-A"),
            "B": tiny_internet.find_asn_by_name("UP-B"),
        }
        policy = AnnouncementPolicy.uniform(upstreams)
        first = catchment_map(compute_routes(tiny_internet, policy))
        second = catchment_map(compute_routes(tiny_internet, policy))
        assert dict(first.items()) == dict(second.items())

    def test_round_none_is_flip_free(self, tiny_internet, two_site_routing):
        baseline = catchment_map(two_site_routing)
        again = catchment_map(two_site_routing)
        assert baseline.diff(again).flipped == 0

    def test_catchment_map_memoized_per_round(self, two_site_routing):
        # The outcome is immutable, so repeated calls must return the
        # cached instance (identity proves the block->site dict was not
        # re-derived) while different rounds get their own entries.
        first = catchment_map(two_site_routing, round_id=3)
        second = catchment_map(two_site_routing, round_id=3)
        assert first is second
        assert dict(first.items()) == dict(second.items())
        other_round = catchment_map(two_site_routing, round_id=4)
        assert other_round is not first
        unrounded = catchment_map(two_site_routing)
        assert unrounded is catchment_map(two_site_routing)

    def test_pop_site_within_candidates(self, tiny_internet, two_site_routing):
        for asn in tiny_internet.ases:
            selection = selection_of(two_site_routing, asn)
            for pop in (tiny_internet.pops[i] for i in tiny_internet.ases[asn].pop_ids):
                site = site_of_pop(two_site_routing, pop)
                assert site in selection.pop_sites or site == selection.primary_site


@pytest.mark.parametrize("builder,scale", CANONICAL_GRID)
def test_sites_of_matches_site_of_block(canonical_routing, builder, scale):
    """The column read equals the scalar reference on every populated
    block, their unpopulated neighbours and blocks past the topology."""
    scenario, routing = canonical_routing(builder, scale)
    populated = np.asarray(scenario.internet.block_table()[0], dtype=np.int64)
    top = int(populated.max())
    blocks = np.concatenate(
        [populated, populated + 1, [0, top + 1, top + 4096, (1 << 24) - 1, 1 << 30]]
    )
    codes = routing.policy.site_codes
    base = routing.sites_of(blocks)
    flipped = False
    for round_id in (None, 0, 3, 65536):
        sites = routing.sites_of(blocks, round_id)
        assert sites.dtype == np.int16
        assert [codes[i] if i >= 0 else None for i in sites.tolist()] == [
            site_of_block(routing, block, round_id) for block in blocks.tolist()
        ]
        flipped |= bool(np.any(sites != base))
    assert flipped  # the grid exercises the flip rule, not only base sites


class TestRoutingConfig:
    def test_rejects_bad_jitter(self):
        with pytest.raises(ConfigurationError):
            RoutingConfig(jitter_weights=(0.5, 0.6))

    def test_rejects_bad_pin(self):
        with pytest.raises(ConfigurationError):
            RoutingConfig(pin_probability=2.0)

    def test_rejects_negative_slack(self):
        with pytest.raises(ConfigurationError):
            RoutingConfig(pop_slack=-1)

    def test_zero_pins_allows_full_shift(self, tiny_internet):
        upstreams = {
            "A": tiny_internet.find_asn_by_name("UP-A"),
            "B": tiny_internet.find_asn_by_name("UP-B"),
        }
        config = RoutingConfig(pin_probability=0.0, jitter_weights=(1.0,))
        heavy = AnnouncementPolicy.uniform(upstreams, prepends={"A": 10})
        catchment = catchment_map(compute_routes(tiny_internet, heavy, config=config))
        no_pin_fraction = catchment.fraction_of("A")
        config_pinned = RoutingConfig(pin_probability=0.5, jitter_weights=(1.0,))
        pinned_catchment = catchment_map(
            compute_routes(tiny_internet, heavy, config=config_pinned)
        )
        # Pinned ASes ignore the prepended length, so A keeps more.
        assert pinned_catchment.fraction_of("A") >= no_pin_fraction
