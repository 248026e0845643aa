"""The Atlas platform: skewed VP deployment and CHAOS measurements."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.anycast.service import AnycastService
from repro.atlas.vp import AtlasVP
from repro.bgp.propagation import RoutingOutcome
from repro.errors import ConfigurationError, MeasurementError
from repro.geo.regions import COUNTRIES
from repro.rng import derive_rng, uniform_unit_np
from repro.topology.internet import Internet

_DOWN_SALT = 0x444F574E


def site_hostname(site_code: str, service_name: str) -> str:
    """The hostname a site's nameserver reports, e.g. ``lax1.b.example``."""
    return f"{site_code.lower()}1.{service_name.lower()}"


@dataclass(frozen=True)
class AtlasResult:
    """One VP's measurement outcome (``site_code`` None = no response)."""

    vp: AtlasVP
    site_code: Optional[str]
    hostname: Optional[str]


class AtlasMeasurement:
    """Results of one platform-wide CHAOS measurement."""

    def __init__(self, results: List[AtlasResult], site_codes: List[str]) -> None:
        self.results = results
        self.site_codes = site_codes

    @property
    def considered_vps(self) -> int:
        """VPs the measurement was scheduled on."""
        return len(self.results)

    @property
    def responding(self) -> List[AtlasResult]:
        """Results with an answer."""
        return [result for result in self.results if result.site_code is not None]

    @property
    def responding_vps(self) -> int:
        """VPs that completed the measurement."""
        return len(self.responding)

    def considered_blocks(self) -> Set[int]:
        """Distinct /24 blocks hosting scheduled VPs."""
        return {result.vp.block for result in self.results}

    def responding_blocks(self) -> Set[int]:
        """Distinct /24 blocks with at least one responding VP."""
        return {result.vp.block for result in self.responding}

    def vp_counts(self) -> Dict[str, int]:
        """Responding VPs per site."""
        counts = {code: 0 for code in self.site_codes}
        for result in self.responding:
            counts[result.site_code] = counts.get(result.site_code, 0) + 1
        return counts

    def fractions(self) -> Dict[str, float]:
        """Share of responding VPs per site (the paper's Atlas metric)."""
        total = self.responding_vps
        if total == 0:
            return {code: 0.0 for code in self.site_codes}
        return {code: count / total for code, count in self.vp_counts().items()}

    def fraction_of(self, site_code: str) -> float:
        """Share of responding VPs served by ``site_code``."""
        return self.fractions().get(site_code, 0.0)

    def block_catchments(self) -> Dict[int, str]:
        """Site per responding block (first responding VP wins)."""
        mapping: Dict[int, str] = {}
        for result in self.responding:
            mapping.setdefault(result.vp.block, result.site_code)
        return mapping


class AtlasPlatform:
    """A deployed population of Atlas VPs over a synthetic Internet; its
    deployment and downtime draws key on the Internet's seed."""

    def __init__(
        self,
        internet: Internet,
        vp_count: int,
        unavailable_fraction: float = 0.046,
    ) -> None:
        if vp_count < 1:
            raise ConfigurationError("vp_count must be >= 1")
        if not 0.0 <= unavailable_fraction < 1.0:
            raise ConfigurationError("unavailable_fraction must be in [0, 1)")
        self.internet = internet
        self.unavailable_fraction = unavailable_fraction
        self.vps = self._deploy(vp_count)

    def _deploy(self, vp_count: int) -> List[AtlasVP]:
        """Place VPs in blocks, weighted by each country's Atlas density.

        The Europe skew comes straight from the per-country
        ``atlas_weight`` in the world model; countries with Internet
        users but few probes (China, Korea, ...) get almost none.
        """
        rng = derive_rng(self.internet.seed, "atlas-deploy")
        columns = self.internet.geodb.columnar()
        populated = self.internet.join(columns.blocks)[1]
        country_index = columns.country_index[populated]
        # The stable sort keeps each country's candidates in block order,
        # which is what ``rng.choice`` below indexes into.
        by_country = columns.blocks[populated][np.argsort(country_index, kind="stable")]
        groups = np.split(by_country, np.cumsum(np.bincount(country_index))[:-1])
        blocks_by_country: Dict[str, List[int]] = {
            code: group.tolist() for code, group in zip(columns.countries, groups) if group.size
        }
        countries = [c for c in COUNTRIES if c.code in blocks_by_country]
        if not countries:
            raise MeasurementError("topology has no geolocated blocks to host VPs")
        weights = [c.atlas_weight for c in countries]
        vps: List[AtlasVP] = []
        model = self.internet.host_model
        for vp_id in range(vp_count):
            country = rng.choices(countries, weights=weights, k=1)[0]
            candidates = blocks_by_country[country.code]
            block = rng.choice(candidates)
            # Atlas probes sit in well-connected networks, which are
            # likelier than average to answer pings — this is why the
            # paper finds ~77% of Atlas blocks also seen by Verfploeter.
            if not model.is_stable_responder(block, country.code):
                retry = rng.choice(candidates)
                if model.is_stable_responder(retry, country.code):
                    block = retry
            record = self.internet.geodb.require(block)
            vps.append(
                AtlasVP(vp_id, block, country.code, record.latitude, record.longitude)
            )
        return vps

    def measure(
        self,
        routing: RoutingOutcome,
        service: AnycastService,
        measurement_id: int = 0,
    ) -> AtlasMeasurement:
        """Run a platform-wide ``hostname.bind`` CHAOS measurement: each VP
        not down (a per-(VP, measurement) draw) learns the hostname of its
        catchment site this round (:func:`site_hostname`).
        :func:`repro.oracle.chaos.wire_measure` makes the same queries on
        the DNS wire."""
        vp_ids = np.array([vp.vp_id for vp in self.vps], dtype=np.uint64)
        down = (
            uniform_unit_np(self.internet.seed, _DOWN_SALT, vp_ids, measurement_id)
            < self.unavailable_fraction
        )
        sites = routing.sites_of([vp.block for vp in self.vps], measurement_id)
        codes = routing.policy.site_codes
        hostnames = [site_hostname(code, service.name) for code in codes]
        results = [
            AtlasResult(vp, None, None) if is_down or site < 0
            else AtlasResult(vp, codes[site], hostnames[site])
            for vp, is_down, site in zip(self.vps, down.tolist(), sites.tolist())
        ]
        return AtlasMeasurement(results, service.site_codes)
