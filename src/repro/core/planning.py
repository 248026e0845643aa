"""Site-addition what-ifs: closing the expansion-planning loop.

Paper §3.1: to predict catchments of a *changed* deployment one
announces the changed configuration on a test prefix and measures it.
This module does exactly that for site additions: given a candidate
location (e.g. from :mod:`repro.analysis.placement`), it finds a
suitable upstream AS near the location, deploys a new site on a cloned
test-prefix service, re-measures with Verfploeter, and quantifies what
the new site would capture and how much latency it would save.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.anycast.service import AnycastService
from repro.anycast.site import AnycastSite
from repro.bgp.cache import RoutingCache, default_routing_cache
from repro.core.scenarios import Scenario
from repro.core.verfploeter import ScanResult, Verfploeter
from repro.errors import ConfigurationError, TopologyError
from repro.geo.distance import haversine_km
from repro.geo.regions import country_by_code
from repro.netaddr.prefix import Prefix
from repro.topology.asys import ASTier
from repro.topology.internet import Internet


@dataclass(frozen=True)
class SiteAdditionResult:
    """Effect of adding one candidate site, measured on a test prefix."""

    site: AnycastSite
    baseline_scan: ScanResult
    trial_scan: ScanResult
    captured_blocks: int
    median_rtt_of_new_site_ms: Optional[float]
    mean_rtt_before_ms: float
    mean_rtt_after_ms: float

    @property
    def capture_fraction(self) -> float:
        """Share of mapped blocks the new site would serve."""
        mapped = self.trial_scan.mapped_blocks
        return self.captured_blocks / mapped if mapped else 0.0

    @property
    def mean_rtt_saving_ms(self) -> float:
        """Mean RTT improvement across all mapped blocks."""
        return self.mean_rtt_before_ms - self.mean_rtt_after_ms


def find_upstream_near(
    internet: Internet,
    latitude: float,
    longitude: float,
    prefer_transit: bool = True,
) -> Tuple[int, str]:
    """The AS whose PoP is nearest to a coordinate: (asn, country).

    Transit ASes are preferred (a new anycast site needs an upstream
    that actually provides transit); stubs are a fallback.
    """
    best: Optional[Tuple[float, int, str]] = None
    for pop in internet.pops:
        asys = internet.ases[pop.asn]
        if prefer_transit and asys.tier == ASTier.STUB:
            continue
        distance = haversine_km(latitude, longitude, pop.latitude, pop.longitude)
        if best is None or distance < best[0]:
            best = (distance, pop.asn, pop.country_code)
    if best is None:
        raise TopologyError("topology has no eligible upstream PoPs")
    return best[1], best[2]


def _mean_rtt(scan: ScanResult) -> float:
    if not scan.rtts:
        return 0.0
    return sum(scan.rtts.values()) / len(scan.rtts)


def evaluate_site_addition(
    scenario: Scenario,
    site_code: str,
    latitude: float,
    longitude: float,
    test_prefix: Optional[Prefix] = None,
    upstream_asn: Optional[int] = None,
    cache: Optional[RoutingCache] = None,
) -> SiteAdditionResult:
    """Measure the effect of adding a site at (latitude, longitude).

    Announces the enlarged deployment on ``test_prefix`` (never touching
    the production service, per paper §3.1) and scans both the baseline
    and the trial configuration.  Both routing states resolve through
    ``cache``: the test-prefix clone announces exactly what production
    does, so its baseline is typically already cached, and the trial
    propagates as a site-addition delta against it.
    """
    test_prefix = test_prefix if test_prefix is not None else Prefix("192.88.99.0/24")
    routing_cache = cache if cache is not None else default_routing_cache()
    service = scenario.service
    if site_code in service.site_codes:
        raise ConfigurationError(f"site code {site_code!r} already exists")
    if upstream_asn is None:
        upstream_asn, country = find_upstream_near(
            scenario.internet, latitude, longitude
        )
    else:
        if upstream_asn not in scenario.internet.ases:
            raise ConfigurationError(f"AS{upstream_asn} does not exist")
        country = scenario.internet.ases[upstream_asn].country_code
    country_by_code(country)  # validate the upstream's country exists

    new_site = AnycastSite(
        site_code, f"candidate ({country})", country, latitude, longitude,
        upstream_asn,
    )
    baseline_service = service.test_prefix_clone(test_prefix)
    trial_service = AnycastService(
        f"{service.name}-trial",
        test_prefix,
        [*service.sites, new_site],
    )

    baseline_vp = Verfploeter(scenario.internet, baseline_service)
    baseline_routing = routing_cache.get_or_compute(
        scenario.internet, baseline_service.default_policy()
    )
    trial_vp = Verfploeter(scenario.internet, trial_service)
    trial_routing = routing_cache.get_or_compute(
        scenario.internet, trial_service.default_policy()
    )

    baseline = baseline_vp.run_scan(
        routing=baseline_routing, dataset_id="addition-baseline"
    )
    trial = trial_vp.run_scan(
        routing=trial_routing, dataset_id=f"addition-{site_code}"
    )

    captured = len(trial.catchment.blocks_of_site(site_code))
    return SiteAdditionResult(
        site=new_site,
        baseline_scan=baseline,
        trial_scan=trial,
        captured_blocks=captured,
        median_rtt_of_new_site_ms=trial.median_rtt_of_site(site_code),
        mean_rtt_before_ms=_mean_rtt(baseline),
        mean_rtt_after_ms=_mean_rtt(trial),
    )
