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
from repro.rng import derive_rng, uniform_unit
from repro.topology.internet import Internet

_DOWN_SALT = 0x444F574E


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
    """A deployed population of Atlas VPs over a synthetic Internet."""

    def __init__(
        self,
        internet: Internet,
        vp_count: int,
        seed: Optional[int] = None,
        unavailable_fraction: float = 0.046,
    ) -> None:
        if vp_count < 1:
            raise ConfigurationError("vp_count must be >= 1")
        if not 0.0 <= unavailable_fraction < 1.0:
            raise ConfigurationError("unavailable_fraction must be in [0, 1)")
        self.internet = internet
        self._seed = internet.seed if seed is None else seed
        self._unavailable_fraction = unavailable_fraction
        self.vps = self._deploy(vp_count)

    def _deploy(self, vp_count: int) -> List[AtlasVP]:
        """Place VPs in blocks, weighted by each country's Atlas density.

        The Europe skew comes straight from the per-country
        ``atlas_weight`` in the world model; countries with Internet
        users but few probes (China, Korea, ...) get almost none.
        """
        rng = derive_rng(self._seed, "atlas-deploy")
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

    def is_vp_down(self, vp: AtlasVP, measurement_id: int) -> bool:
        """Deterministic per-(VP, measurement) downtime draw."""
        return (
            uniform_unit(self._seed, _DOWN_SALT, vp.vp_id, measurement_id)
            < self._unavailable_fraction
        )

    def measure(
        self,
        routing: RoutingOutcome,
        service: AnycastService,
        measurement_id: int = 0,
    ) -> AtlasMeasurement:
        """Run a platform-wide ``hostname.bind`` CHAOS measurement.

        Each available VP sends a CHAOS TXT query that BGP delivers to
        its catchment site's nameserver; the TXT answer names the site.
        """
        from repro.dns.message import CLASS_CHAOS, TYPE_TXT, DnsMessage
        from repro.dns.server import SiteIdentityServer

        servers = {
            site.code: SiteIdentityServer(site.code, service.name)
            for site in service.sites
        }
        hostname_to_site = {server.hostname: code for code, server in servers.items()}
        results: List[AtlasResult] = []
        for vp in self.vps:
            if self.is_vp_down(vp, measurement_id):
                results.append(AtlasResult(vp, None, None))
                continue
            site_code = routing.site_of_block(vp.block, measurement_id)
            if site_code is None:
                results.append(AtlasResult(vp, None, None))
                continue
            query = DnsMessage.query(
                message_id=(vp.vp_id + measurement_id) & 0xFFFF,
                name="hostname.bind",
                qtype=TYPE_TXT,
                qclass=CLASS_CHAOS,
            )
            wire = query.encode()
            response = servers[site_code].handle(DnsMessage.decode(wire))
            decoded = DnsMessage.decode(response.encode())
            if decoded.rcode != 0 or not decoded.answers:
                results.append(AtlasResult(vp, None, None))
                continue
            hostname = decoded.answers[0].txt_strings()[0]
            results.append(
                AtlasResult(vp, hostname_to_site.get(hostname), hostname)
            )
        return AtlasMeasurement(results, service.site_codes)
