"""Geolocation substrate.

Provides the world model used to place ASes and /24 blocks (continents,
countries with Internet-user weights and bounding boxes), a MaxMind-like
block-level geolocation database, great-circle distance, and the
two-degree geographic grid used by the paper's coverage maps
(Figures 2-4).
"""

from repro.lazy import lazy_exports

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

_EXPORTS = {
    "Country": "repro.geo.regions",
    "Region": "repro.geo.regions",
    "COUNTRIES": "repro.geo.regions",
    "country_by_code": "repro.geo.regions",
    "GeoDatabase": "repro.geo.geodb",
    "GeoRecord": "repro.geo.geodb",
    "GeoGrid": "repro.geo.grid",
    "GridCell": "repro.geo.grid",
    "haversine_km": "repro.geo.distance",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
