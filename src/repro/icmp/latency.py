"""Path latency model.

The paper's future work (§7) suggests Verfploeter RTTs could drive
anycast site placement.  This model gives each (block, site) pair a
round-trip time with the structure real measurements have:

* geographic propagation — great-circle distance at ~2/3 c in fibre
  (~100 km per millisecond one-way), doubled for the round trip and
  inflated by a path-stretch factor (routes are not geodesics);
* a per-block access delay (last-mile technology, deterministic);
* per-(block, round) queueing jitter.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.anycast.service import AnycastService
from repro.errors import ConfigurationError
from repro.geo.distance import haversine_km
from repro.rng import uniform_unit
from repro.topology.internet import Internet

_ACCESS_SALT = 0x41434353
_JITTER_SALT = 0x4A495454

#: One-way kilometres covered per millisecond at ~2/3 the speed of light.
KM_PER_MS = 100.0


class LatencyModel:
    """Deterministic RTTs between /24 blocks and anycast sites."""

    def __init__(
        self,
        internet: Internet,
        service: AnycastService,
        path_stretch: float = 1.4,
        access_delay_range_ms: Tuple[float, float] = (2.0, 25.0),
        jitter_ms: float = 4.0,
    ) -> None:
        if path_stretch < 1.0:
            raise ConfigurationError("path_stretch must be >= 1")
        if access_delay_range_ms[0] > access_delay_range_ms[1]:
            raise ConfigurationError("access delay range inverted")
        if jitter_ms < 0:
            raise ConfigurationError("jitter_ms must be >= 0")
        self._internet = internet
        self._seed = internet.seed
        self._stretch = path_stretch
        self._access_range = access_delay_range_ms
        self._jitter = jitter_ms
        self._site_locations: Dict[str, Tuple[float, float]] = {
            site.code: site.location for site in service.sites
        }

    def access_delay_ms(self, block: int) -> float:
        """Last-mile delay of ``block`` (stable over time)."""
        low, high = self._access_range
        draw = uniform_unit(self._seed, _ACCESS_SALT, block)
        return low + (high - low) * draw * draw  # skewed toward fast access

    def propagation_rtt_ms(self, block: int, site_code: str) -> Optional[float]:
        """Round-trip propagation between ``block`` and ``site_code``.

        None when the block has no geolocation (its distance is unknown)
        or the site is not part of the service.
        """
        location = self._site_locations.get(site_code)
        record = self._internet.geodb.locate(block)
        if location is None or record is None:
            return None
        distance = haversine_km(
            record.latitude, record.longitude, location[0], location[1]
        )
        return 2.0 * self._stretch * distance / KM_PER_MS

    def rtt_ms(self, block: int, site_code: str, round_id: int = 0) -> Optional[float]:
        """Full RTT: propagation + access + per-round jitter."""
        propagation = self.propagation_rtt_ms(block, site_code)
        if propagation is None:
            return None
        jitter = self._jitter * uniform_unit(
            self._seed, _JITTER_SALT, block, round_id
        )
        return propagation + self.access_delay_ms(block) + jitter

