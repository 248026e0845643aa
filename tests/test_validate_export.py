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
        from repro.topology.hosts import HostModelConfig
        from repro.topology.internet import Internet

        broken = Internet(
            seed=1, as_table=([1], ["stub"], ["LONELY"], ["US"], [False]),
            pop_table=([1], ["US"], [40.0], [-100.0]), prefixes=[], edges=[],
            block_table=([], [], []), geodb=GeoDatabase(), host_config=HostModelConfig(),
        )
        report = validate_internet(broken)
        assert not report.ok
        assert any("no provider" in error for error in report.errors)
        assert any("no tier-1" in error for error in report.errors)
        with pytest.raises(TopologyError):
            report.raise_if_invalid()

    def test_detects_foreign_pop(self, tiny_internet):
        from repro.geo.geodb import GeoDatabase
        from repro.topology.hosts import HostModelConfig
        from repro.topology.internet import Internet

        broken = Internet(
            seed=1, as_table=([1, 2], ["tier1", "stub"], ["T1", "S"], ["US", "US"],
                              [False, False]),
            pop_table=([1, 2], ["US", "US"], [40.0, 41.0], [-100.0, -99.0]),
            prefixes=[], edges=[[2], [1], [0]],  # AS2 buys transit from AS1
            block_table=([100], [2], [0]),  # block of AS2 on AS1's PoP
            geodb=GeoDatabase(), host_config=HostModelConfig(),
        )
        report = validate_internet(broken)
        assert any("foreign PoP" in error for error in report.errors)

