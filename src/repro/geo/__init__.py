"""Geolocation substrate.

Provides the world model used to place ASes and /24 blocks (continents,
countries with Internet-user weights and bounding boxes), a MaxMind-like
block-level geolocation database, great-circle distance, and the
two-degree geographic grid used by the paper's coverage maps
(Figures 2-4).
"""

from repro.geo.distance import haversine_km
from repro.geo.geodb import GeoDatabase, GeoRecord
from repro.geo.grid import GeoGrid, GridCell
from repro.geo.regions import (
    COUNTRIES,
    Country,
    Region,
    country_by_code,
)

__all__ = [
    "Country",
    "Region",
    "COUNTRIES",
    "country_by_code",
    "GeoDatabase",
    "GeoRecord",
    "GeoGrid",
    "GridCell",
    "haversine_km",
]
