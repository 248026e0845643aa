"""Building RSSAC-002-style reports from logs and routing.

The report value types (:class:`~repro.traffic.rssac.Rssac002Report`,
:class:`~repro.traffic.rssac.SiteTrafficReport`) live in
:mod:`repro.traffic.rssac`; this module owns the aggregation, which
needs the load estimator and therefore sits in the ``load`` layer.
"""

from __future__ import annotations

import numpy as np

from repro.bgp.propagation import RoutingOutcome
from repro.load.estimator import LoadEstimate
from repro.traffic.logs import DayLoad, LoadKind
from repro.traffic.rssac import Rssac002Report, SiteTrafficReport


def build_rssac_report(
    service_name: str,
    load: DayLoad,
    routing: RoutingOutcome,
) -> Rssac002Report:
    """Aggregate one day of logs into the per-site report.

    Queries and responses are split by the ground-truth catchment of
    each source block (the operator's own logs know where every query
    landed); ``unique_sources`` counts /24 blocks, the aggregation
    level of this whole reproduction.
    """
    queries = LoadEstimate(load, LoadKind.QUERIES)
    responses = LoadEstimate(load, LoadKind.ALL_REPLIES)
    site_codes = routing.policy.site_codes
    site_indices = routing.sites_of(load.blocks)
    routed = site_indices >= 0

    def per_site(weights=None) -> np.ndarray:
        """Each site's sum of ``weights`` (default 1) in log-row order."""
        return np.bincount(site_indices[routed], weights, minlength=len(site_codes))

    per_site_queries = per_site(queries.daily[routed])
    per_site_responses = per_site(responses.daily[routed])
    sources = per_site()
    sites = [
        SiteTrafficReport(
            site_code=code,
            queries=float(per_site_queries[index]),
            responses=float(per_site_responses[index]),
            unique_sources=int(sources[index]),
        )
        for index, code in enumerate(site_codes)
    ]
    return Rssac002Report(
        service_name=service_name,
        date_label=load.date_label,
        total_queries=queries.total(),
        total_responses=responses.total(),
        unique_sources=len(load),
        sites=sites,
    )
