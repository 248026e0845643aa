"""Tests for recorded AS paths: structure and valley-freedom."""

from __future__ import annotations

import pytest

from repro.bgp.reference import selection_of
from repro.bgp.route import RouteClass
from repro.topology.validate import relationship


@pytest.fixture(scope="module")
def selections(tiny_internet, two_site_routing):
    return {
        asn: selection_of(two_site_routing, asn) for asn in tiny_internet.ases
    }


class TestPathStructure:
    def test_starts_with_self_ends_at_service(self, selections):
        for asn, selection in selections.items():
            assert selection.as_path[0] == asn
            assert selection.as_path[-1] == 0  # the service sentinel

    def test_prepending_visible_in_origin_path(self, tiny_internet):
        from repro.bgp.policy import AnnouncementPolicy
        from repro.bgp.propagation import compute_routes

        upstream = tiny_internet.find_asn_by_name("UP-A")
        policy = AnnouncementPolicy.uniform({"A": upstream}, prepends={"A": 2})
        routing = compute_routes(tiny_internet, policy)
        origin_path = selection_of(routing, upstream).as_path
        assert origin_path == (upstream, 0, 0, 0)  # 1 + 2 prepends

    def test_no_as_loops(self, selections):
        for selection in selections.values():
            real_hops = [hop for hop in selection.as_path if hop != 0]
            assert len(real_hops) == len(set(real_hops)), selection.as_path

    def test_consecutive_hops_are_adjacent(self, tiny_internet, selections):
        graph = tiny_internet.graph
        for selection in selections.values():
            hops = [hop for hop in selection.as_path if hop != 0]
            for a, b in zip(hops, hops[1:]):
                assert graph.has_link(a, b), f"non-adjacent hop {a}->{b}"

    def test_path_consistent_with_neighbor(self, selections):
        """Each AS's path is itself prepended to its primary neighbour's."""
        for selection in selections.values():
            hops = selection.as_path
            if len(hops) >= 2 and hops[1] != 0:
                neighbor_path = selections[hops[1]].as_path
                assert hops[1:] == neighbor_path


class TestValleyFreedom:
    def test_paths_are_valley_free(self, tiny_internet, selections):
        """Walking toward the origin: up (providers), at most one peer
        crossing, then down (customers) — the Gao-Rexford invariant."""
        graph = tiny_internet.graph
        for selection in selections.values():
            hops = [hop for hop in selection.as_path if hop != 0]
            phase = "up"
            for a, b in zip(hops, hops[1:]):
                relation = relationship(graph, a, b)
                if phase == "up":
                    if relation == "provider":
                        continue
                    phase = "peer" if relation == "peer" else "down"
                elif phase == "peer":
                    assert relation == "customer", (
                        f"valley after peer crossing: {selection.as_path}"
                    )
                    phase = "down"
                else:
                    assert relation == "customer", (
                        f"path climbs after descending: {selection.as_path}"
                    )

    def test_route_class_matches_first_hop(self, tiny_internet, selections):
        graph = tiny_internet.graph
        class_names = {
            RouteClass.CUSTOMER: "customer",
            RouteClass.PEER: "peer",
            RouteClass.PROVIDER: "provider",
        }
        for selection in selections.values():
            hops = [hop for hop in selection.as_path if hop != 0]
            if len(hops) < 2:
                continue  # route heard directly from the service
            assert relationship(graph, hops[0], hops[1]) == class_names[
                selection.route_class
            ]
