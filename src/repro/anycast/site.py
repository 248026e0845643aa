"""Anycast sites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class AnycastSite:
    """One anycast site (paper Table 3 rows).

    A site is a location announcing the service prefix through a
    specific upstream AS.  ``code`` is the short airport-style label
    used throughout the paper (LAX, MIA, CDG, ...).
    """

    code: str
    name: str
    country_code: str
    latitude: float
    longitude: float
    upstream_asn: int

    @property
    def location(self) -> Tuple[float, float]:
        """(latitude, longitude) of the site."""
        return (self.latitude, self.longitude)
