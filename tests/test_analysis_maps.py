"""Tests for the map figures (2-4)."""

from __future__ import annotations

import pytest

from repro.analysis.maps import (
    atlas_grid,
    catchment_grid,
    load_grid,
    render_ascii_map,
    server_load_grid,
)
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN


@pytest.fixture(scope="module")
def estimate(broot_tiny):
    return LoadEstimate(broot_tiny.day_load("2017-04-12"))


class TestCatchmentGrid:
    def test_covers_geolocated_blocks(self, broot_tiny, broot_scan):
        grid = catchment_grid(broot_scan.catchment, broot_tiny.internet.geodb)
        total = sum(grid.site_totals().values())
        geolocated = sum(
            1 for block in broot_scan.catchment.blocks()
            if broot_tiny.internet.geodb.locate(block) is not None
        )
        assert total == geolocated

    def test_only_service_sites(self, broot_tiny, broot_scan):
        grid = catchment_grid(broot_scan.catchment, broot_tiny.internet.geodb)
        assert set(grid.site_totals()) <= {"LAX", "MIA"}


class TestAtlasGrid:
    def test_counts_vps(self, broot_tiny, broot_routing):
        measurement = broot_tiny.atlas.measure(broot_routing, broot_tiny.service)
        grid = atlas_grid(measurement)
        assert sum(grid.site_totals().values()) == measurement.responding_vps

    def test_far_sparser_than_verfploeter(self, broot_tiny, broot_routing, broot_scan):
        measurement = broot_tiny.atlas.measure(broot_routing, broot_tiny.service)
        atlas_cells = len(atlas_grid(measurement))
        verf_cells = len(
            catchment_grid(broot_scan.catchment, broot_tiny.internet.geodb)
        )
        assert verf_cells > 2 * atlas_cells


class TestLoadGrid:
    def test_weights_are_load(self, broot_tiny, broot_scan, estimate):
        grid = load_grid(broot_scan.catchment, estimate, broot_tiny.internet.geodb)
        geolocated_total = sum(
            estimate.of_block(int(block))
            for block in estimate.blocks
            if broot_tiny.internet.geodb.locate(int(block)) is not None
        )
        assert sum(grid.site_totals().values()) == pytest.approx(geolocated_total)

    def test_unknown_bucket_present(self, broot_tiny, broot_scan, estimate):
        grid = load_grid(broot_scan.catchment, estimate, broot_tiny.internet.geodb)
        assert UNKNOWN in grid.site_totals()

    def test_server_grid(self, broot_tiny, estimate):
        grid = server_load_grid(
            estimate,
            broot_tiny.internet.geodb,
            server_of_block=lambda block: f"ns{1 + block % 4}",
        )
        assert set(grid.site_totals()) <= {"ns1", "ns2", "ns3", "ns4"}


class TestAsciiMap:
    def test_renders_legend_and_cells(self, broot_tiny, broot_scan):
        grid = catchment_grid(
            broot_scan.catchment, broot_tiny.internet.geodb, cell_degrees=6
        )
        text = render_ascii_map(grid)
        assert "legend:" in text
        assert "LAX" in text and "MIA" in text
        body = text.split("legend:")[0]
        assert any(symbol in body for symbol in ("L", "M"))

    def test_custom_symbols(self, broot_tiny, broot_scan):
        grid = catchment_grid(
            broot_scan.catchment, broot_tiny.internet.geodb, cell_degrees=6
        )
        text = render_ascii_map(grid, site_symbols={"LAX": "l", "MIA": "m"})
        assert "l=LAX" in text
