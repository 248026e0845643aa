"""Tests for AS objects, relationships, and the prefix allocator."""

from __future__ import annotations

import pytest

from repro.errors import AddressError, TopologyError
from repro.netaddr.prefix import Prefix
from repro.topology.allocator import PrefixAllocator
from repro.topology.asys import ASTier, AutonomousSystem, PoP
from repro.topology.relationships import Relationship, RelationshipGraph
from repro.topology.validate import overlaps, relationship


class TestAutonomousSystem:
    def test_multi_pop_flag(self):
        single = AutonomousSystem(1, ASTier.STUB, "X", "US", [1])
        multi = AutonomousSystem(2, ASTier.TRANSIT, "Y", "US", [1, 2])
        assert not single.is_multi_pop
        assert multi.is_multi_pop

    def test_rejects_bad_tier(self):
        with pytest.raises(ValueError):
            AutonomousSystem(1, "mega", "X", "US", [])

    def test_pop_location(self):
        pop = PoP(0, 1, "US", 40.0, -100.0)
        assert (pop.latitude, pop.longitude) == (40.0, -100.0)


class TestRelationshipGraph:
    def test_customer_provider(self):
        graph = RelationshipGraph()
        graph.add_customer_provider(2, 1)
        assert graph.providers_of(2) == [1]
        assert graph.customers_of(1) == [2]
        assert relationship(graph, 1, 2) == Relationship.CUSTOMER
        assert relationship(graph, 2, 1) == Relationship.PROVIDER

    def test_peering_symmetric(self):
        graph = RelationshipGraph()
        graph.add_peering(1, 2)
        assert graph.peers_of(1) == [2]
        assert graph.peers_of(2) == [1]
        assert relationship(graph, 1, 2) == Relationship.PEER

    def test_self_loop_rejected(self):
        graph = RelationshipGraph()
        with pytest.raises(TopologyError):
            graph.add_peering(1, 1)

    def test_duplicate_edge_rejected(self):
        graph = RelationshipGraph()
        graph.add_customer_provider(2, 1)
        with pytest.raises(TopologyError):
            graph.add_peering(1, 2)
        with pytest.raises(TopologyError):
            graph.add_customer_provider(1, 2)

    def test_has_link_either_direction(self):
        graph = RelationshipGraph()
        graph.add_customer_provider(2, 1)
        assert graph.has_link(1, 2)
        assert graph.has_link(2, 1)
        assert not graph.has_link(1, 3)

    def test_relationship_unknown_neighbor(self):
        graph = RelationshipGraph()
        with pytest.raises(TopologyError):
            relationship(graph, 1, 2)


class TestPrefixAllocator:
    def test_allocates_aligned_nonoverlapping(self):
        allocator = PrefixAllocator(Prefix("10.0.0.0/8"))
        first = allocator.allocate(16)
        second = allocator.allocate(16)
        assert first != second
        assert not overlaps(first, second)
        assert first.network % first.size == 0

    def test_alignment_after_small_allocation(self):
        allocator = PrefixAllocator(Prefix("10.0.0.0/8"))
        allocator.allocate(24)
        big = allocator.allocate(16)
        assert big.network % big.size == 0

    def test_exhaustion(self):
        allocator = PrefixAllocator(Prefix("10.0.0.0/24"))
        allocator.allocate(25)
        allocator.allocate(25)
        with pytest.raises(TopologyError):
            allocator.allocate(25)

    def test_rejects_shorter_than_pool(self):
        allocator = PrefixAllocator(Prefix("10.0.0.0/8"))
        with pytest.raises(AddressError):
            allocator.allocate(7)
