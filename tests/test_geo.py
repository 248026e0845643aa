"""Tests for the geolocation substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, DatasetError
from repro.geo.distance import haversine_km
from repro.geo.geodb import GeoColumns, GeoDatabase, GeoRecord
from repro.geo.grid import GeoGrid
from repro.geo.regions import (
    COUNTRIES,
    Region,
    country_by_code,
)


class TestRegions:
    def test_all_codes_unique(self):
        codes = [country.code for country in COUNTRIES]
        assert len(codes) == len(set(codes))

    def test_lookup(self):
        assert country_by_code("NL").name == "Netherlands"

    def test_unknown_code(self):
        with pytest.raises(ConfigurationError):
            country_by_code("ZZ")

    def test_regions_valid(self):
        for country in COUNTRIES:
            assert country.region in Region.ALL

    def test_bounding_boxes_sane(self):
        for country in COUNTRIES:
            assert -90 <= country.lat_range[0] < country.lat_range[1] <= 90
            assert -180 <= country.lon_range[0] < country.lon_range[1] <= 180

    def test_atlas_skew_is_european(self):
        """The documented Atlas skew: Europe much denser than Asia."""
        def density(code):
            country = country_by_code(code)
            return country.atlas_weight / country.internet_weight

        assert density("DE") > 10 * density("CN")
        assert density("NL") > 10 * density("IN")


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(52.0, 5.0, 52.0, 5.0) == 0.0

    def test_known_distance_amsterdam_london(self):
        distance = haversine_km(52.37, 4.90, 51.51, -0.13)
        assert 340 < distance < 380

    def test_antipodal(self):
        distance = haversine_km(0, 0, 0, 180)
        assert math.isclose(distance, math.pi * 6371.0, rel_tol=1e-6)

    def test_symmetry(self):
        assert haversine_km(10, 20, 30, 40) == haversine_km(30, 40, 10, 20)


class TestGeoDatabase:
    def test_locate_from_columns(self):
        geodb = GeoDatabase(GeoColumns(
            np.array([3, 5], dtype=np.int64), np.array([40.0, 52.0]),
            np.array([-100.0, 5.0]), np.array([1, 0], dtype=np.int32), ("NL", "US"),
        ))
        assert geodb.locate(5) == GeoRecord("NL", 52.0, 5.0)
        assert geodb.locate(3).country_code == "US"
        assert geodb.locate(4) is None

    def test_missing_block(self):
        assert GeoDatabase().locate(5) is None

    def test_require_raises(self):
        with pytest.raises(DatasetError):
            GeoDatabase().require(5)


class TestGeoGrid:
    def test_accumulates_weight(self):
        grid = GeoGrid(2.0)
        grid.add(52.1, 5.1, "A")
        grid.add(52.3, 5.3, "A", weight=2.0)
        cells = list(grid.cells())
        assert len(cells) == 1
        assert cells[0].weights["A"] == 3.0

    def test_separate_cells(self):
        grid = GeoGrid(2.0)
        grid.add(0.0, 0.0, "A")
        grid.add(10.0, 10.0, "B")
        assert len(grid) == 2

    def test_dominant_site(self):
        grid = GeoGrid(2.0)
        grid.add(0.0, 0.0, "A", weight=1.0)
        grid.add(0.5, 0.5, "B", weight=3.0)
        cell = next(grid.cells())
        assert cell.dominant_site() == "B"

    def test_dominant_tie_breaks_alphabetically(self):
        grid = GeoGrid(2.0)
        grid.add(0.0, 0.0, "B", weight=1.0)
        grid.add(0.0, 0.0, "A", weight=1.0)
        assert next(grid.cells()).dominant_site() == "A"

    def test_site_totals(self):
        grid = GeoGrid(2.0)
        grid.add(0.0, 0.0, "A", 1.0)
        grid.add(30.0, 30.0, "A", 2.0)
        grid.add(30.0, 30.0, "B", 5.0)
        assert grid.site_totals() == {"A": 3.0, "B": 5.0}

    def test_top_cells(self):
        grid = GeoGrid(2.0)
        grid.add(0.0, 0.0, "A", 1.0)
        grid.add(30.0, 30.0, "A", 10.0)
        top = grid.top_cells(1)
        assert len(top) == 1
        assert top[0].total == 10.0

    def test_rejects_bad_coordinates(self):
        grid = GeoGrid(2.0)
        with pytest.raises(ConfigurationError):
            grid.add(91.0, 0.0, "A")
        with pytest.raises(ConfigurationError):
            grid.add(0.0, 181.0, "A")

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ConfigurationError):
            GeoGrid(0)
