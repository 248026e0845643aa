"""World model: regions and countries.

Countries carry three things the simulation needs:

* an approximate bounding box, so blocks can be scattered at plausible
  coordinates for the 2-degree map figures;
* an Internet-user weight, so the synthetic topology puts networks where
  users are (the paper stresses that RIPE Atlas does *not* follow this
  distribution while Verfploeter's passive VPs do);
* an Atlas deployment weight, modelling RIPE Atlas's well-documented
  Europe skew (paper §5.4 and [8]).

Figures are coarse by design — the reproduction needs relative shape,
not census precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError


class Region:
    """Continental region labels."""

    NORTH_AMERICA = "NA"
    SOUTH_AMERICA = "SA"
    EUROPE = "EU"
    AFRICA = "AF"
    ASIA = "AS"
    OCEANIA = "OC"

    ALL = (NORTH_AMERICA, SOUTH_AMERICA, EUROPE, AFRICA, ASIA, OCEANIA)


@dataclass(frozen=True)
class Country:
    """A country with placement box and sampling weights.

    ``internet_weight`` is proportional to Internet-user population;
    ``atlas_weight`` is proportional to RIPE Atlas probe density, which
    is deliberately skewed toward Europe.
    """

    code: str
    name: str
    region: str
    lat_range: Tuple[float, float]
    lon_range: Tuple[float, float]
    internet_weight: float
    atlas_weight: float


def _country(
    code: str,
    name: str,
    region: str,
    lat: Tuple[float, float],
    lon: Tuple[float, float],
    internet: float,
    atlas: float,
) -> Country:
    return Country(code, name, region, lat, lon, internet, atlas)


# Internet weights roughly track 2017 Internet-user counts (millions);
# Atlas weights roughly track RIPE Atlas probe counts per country.
COUNTRIES: List[Country] = [
    # North America
    _country("US", "United States", Region.NORTH_AMERICA, (25, 48), (-124, -68), 290, 900),
    _country("CA", "Canada", Region.NORTH_AMERICA, (43, 57), (-128, -55), 33, 160),
    _country("MX", "Mexico", Region.NORTH_AMERICA, (15, 31), (-115, -88), 76, 25),
    # South America
    _country("BR", "Brazil", Region.SOUTH_AMERICA, (-32, 0), (-70, -36), 140, 60),
    _country("AR", "Argentina", Region.SOUTH_AMERICA, (-52, -23), (-71, -55), 34, 18),
    _country("CL", "Chile", Region.SOUTH_AMERICA, (-52, -19), (-74, -68), 14, 10),
    _country("PE", "Peru", Region.SOUTH_AMERICA, (-17, -1), (-80, -69), 14, 5),
    _country("CO", "Colombia", Region.SOUTH_AMERICA, (-3, 11), (-78, -68), 28, 8),
    # Europe — heavy Atlas weights on purpose
    _country("DE", "Germany", Region.EUROPE, (47, 55), (6, 14), 72, 1300),
    _country("FR", "France", Region.EUROPE, (43, 50), (-4, 7), 56, 800),
    _country("GB", "United Kingdom", Region.EUROPE, (50, 58), (-7, 1), 62, 700),
    _country("NL", "Netherlands", Region.EUROPE, (51, 53), (4, 7), 16, 600),
    _country("ES", "Spain", Region.EUROPE, (36, 43), (-9, 3), 39, 200),
    _country("IT", "Italy", Region.EUROPE, (37, 46), (7, 18), 39, 250),
    _country("PL", "Poland", Region.EUROPE, (49, 54), (14, 24), 28, 150),
    _country("SE", "Sweden", Region.EUROPE, (55, 66), (11, 23), 9, 180),
    _country("DK", "Denmark", Region.EUROPE, (55, 57), (8, 12), 5, 130),
    _country("CZ", "Czechia", Region.EUROPE, (49, 51), (12, 19), 9, 200),
    _country("RU", "Russia", Region.EUROPE, (50, 62), (30, 110), 110, 300),
    _country("UA", "Ukraine", Region.EUROPE, (45, 52), (22, 38), 21, 110),
    _country("TR", "Turkey", Region.EUROPE, (36, 42), (26, 44), 48, 40),
    # Africa
    _country("ZA", "South Africa", Region.AFRICA, (-34, -23), (17, 32), 29, 40),
    _country("NG", "Nigeria", Region.AFRICA, (4, 13), (3, 14), 47, 8),
    _country("EG", "Egypt", Region.AFRICA, (22, 31), (25, 35), 37, 6),
    _country("KE", "Kenya", Region.AFRICA, (-4, 4), (34, 41), 21, 10),
    _country("MA", "Morocco", Region.AFRICA, (28, 35), (-12, -2), 19, 5),
    # Asia — many users, few Atlas probes (esp. CN, KR)
    _country("CN", "China", Region.ASIA, (21, 45), (80, 122), 720, 15),
    _country("IN", "India", Region.ASIA, (8, 30), (69, 89), 390, 50),
    _country("JP", "Japan", Region.ASIA, (32, 43), (130, 144), 115, 100),
    _country("KR", "South Korea", Region.ASIA, (34, 38), (126, 129), 45, 12),
    _country("ID", "Indonesia", Region.ASIA, (-9, 4), (96, 139), 105, 30),
    _country("VN", "Vietnam", Region.ASIA, (9, 22), (103, 108), 50, 6),
    _country("TH", "Thailand", Region.ASIA, (6, 20), (98, 105), 38, 10),
    _country("PK", "Pakistan", Region.ASIA, (24, 36), (61, 76), 35, 5),
    _country("IR", "Iran", Region.ASIA, (26, 38), (45, 61), 42, 20),
    _country("SA", "Saudi Arabia", Region.ASIA, (17, 31), (36, 54), 24, 6),
    _country("IL", "Israel", Region.ASIA, (30, 33), (34, 36), 6, 40),
    _country("SG", "Singapore", Region.ASIA, (1, 2), (103, 104), 5, 60),
    # Oceania
    _country("AU", "Australia", Region.OCEANIA, (-38, -17), (115, 152), 21, 120),
    _country("NZ", "New Zealand", Region.OCEANIA, (-46, -35), (167, 178), 4, 40),
]

_BY_CODE: Dict[str, Country] = {country.code: country for country in COUNTRIES}


def country_by_code(code: str) -> Country:
    """Look up a country by ISO-like two-letter code."""
    try:
        return _BY_CODE[code]
    except KeyError:
        raise ConfigurationError(f"unknown country code {code!r}") from None
