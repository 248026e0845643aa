"""Tests for topology validation."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology.validate import validate_internet


class TestValidateInternet:
    def test_generated_topologies_are_valid(self, tiny_internet, broot_tiny,
                                            tangled_tiny):
        for internet in (tiny_internet, broot_tiny.internet,
                         tangled_tiny.internet):
            report = validate_internet(internet)
            assert report.ok, report.errors
            report.raise_if_invalid()  # must not raise

    def test_detects_missing_provider(self, tiny_internet):
        # Hand-build a broken topology: a stub with no providers.
        from repro.geo.geodb import GeoDatabase
        from repro.topology.asys import AutonomousSystem, PoP
        from repro.topology.hosts import HostModel
        from repro.topology.internet import Internet
        from repro.topology.relationships import RelationshipGraph

        pops = [PoP(0, 1, "US", 40.0, -100.0)]
        ases = {1: AutonomousSystem(1, "stub", "LONELY", "US", [0])}
        broken = Internet(
            seed=1, ases=ases, pops=pops, graph=RelationshipGraph(),
            announced=[], block_assignment={}, geodb=GeoDatabase(),
            host_model=HostModel(1),
        )
        report = validate_internet(broken)
        assert not report.ok
        assert any("no provider" in error for error in report.errors)
        assert any("no tier-1" in error for error in report.errors)
        with pytest.raises(TopologyError):
            report.raise_if_invalid()

    def test_detects_foreign_pop(self, tiny_internet):
        from repro.geo.geodb import GeoDatabase
        from repro.topology.asys import AutonomousSystem, PoP
        from repro.topology.hosts import HostModel
        from repro.topology.internet import Internet
        from repro.topology.relationships import RelationshipGraph

        graph = RelationshipGraph()
        graph.add_customer_provider(2, 1)
        pops = [PoP(0, 1, "US", 40.0, -100.0), PoP(1, 2, "US", 41.0, -99.0)]
        ases = {
            1: AutonomousSystem(1, "tier1", "T1", "US", [0]),
            2: AutonomousSystem(2, "stub", "S", "US", [1]),
        }
        broken = Internet(
            seed=1, ases=ases, pops=pops, graph=graph, announced=[],
            block_assignment={100: (2, 0)},  # block of AS2 on AS1's PoP
            geodb=GeoDatabase(), host_model=HostModel(1),
        )
        report = validate_internet(broken)
        assert any("foreign PoP" in error for error in report.errors)

