"""Tests for topology validation and figure-data export."""

from __future__ import annotations

import pytest

from repro.analysis.export import (
    export_grid,
    export_hourly_series,
    export_prefix_division_series,
    export_prepend_series,
    export_stability_series,
)
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


class TestExport:
    def test_prepend_series(self, tmp_path, broot_tiny, broot_verfploeter):
        from repro.core.experiments import prepend_sweep

        sweep = prepend_sweep(
            broot_verfploeter, broot_tiny.atlas, configs=(("equal", {}),)
        )
        path = tmp_path / "fig5.tsv"
        export_prepend_series(sweep, "LAX", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "config\tatlas_fraction\tverfploeter_fraction"
        assert len(lines) == 2
        fields = lines[1].split("\t")
        assert fields[0] == "equal"
        assert 0.0 <= float(fields[2]) <= 1.0

    def test_stability_series(self, tmp_path, broot_verfploeter):
        from repro.core.experiments import run_stability_series

        series = run_stability_series(broot_verfploeter, rounds=4)
        path = tmp_path / "fig9.tsv"
        export_stability_series(series, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + (rounds-1) transitions

    def test_hourly_series(self, tmp_path):
        import numpy as np

        hourly = {"equal": {"LAX": np.arange(24.0), "MIA": np.ones(24)}}
        path = tmp_path / "fig6.tsv"
        export_hourly_series(hourly, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert len(lines[1].split("\t")) == 26

    def test_prefix_division_series(self, tmp_path, broot_tiny, broot_scan):
        path = tmp_path / "fig8.tsv"
        export_prefix_division_series(
            broot_scan.catchment, broot_tiny.internet, path
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("prefix_length\tprefixes")
        assert len(lines) > 3
        for line in lines[1:]:
            fields = line.split("\t")
            fractions = [float(value) for value in fields[2:]]
            assert sum(fractions) == pytest.approx(1.0, abs=0.02)

    def test_grid_export(self, tmp_path, broot_tiny, broot_scan):
        from repro.analysis.maps import catchment_grid

        grid = catchment_grid(broot_scan.catchment, broot_tiny.internet.geodb)
        path = tmp_path / "fig2b.tsv"
        export_grid(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lat\tlon\tsite\tweight"
        total = sum(float(line.split("\t")[3]) for line in lines[1:])
        assert total == pytest.approx(sum(grid.site_totals().values()))
