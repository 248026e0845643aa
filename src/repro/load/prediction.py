"""Predicted vs measured site load (paper §5.5, Table 6).

The *prediction* weights a (possibly test-prefix or older) catchment
map by historical load.  The *measured* load routes every
traffic-sending block — including ping-dark ones — by the ground-truth
catchment on the measurement day.  Comparing the two quantifies both
the unmappable-blocks effect and routing drift over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bgp.propagation import RoutingOutcome
from repro.load.estimator import LoadEstimate
from repro.load.weighting import SiteLoad, accumulate_site_load


@dataclass
class PredictionComparison:
    """Per-site predicted and measured load fractions."""

    site_codes: List[str]
    predicted: Dict[str, float]
    measured: Dict[str, float]

    def error_of(self, site_code: str) -> float:
        """Absolute error (fraction points) at ``site_code``."""
        return abs(self.predicted.get(site_code, 0.0) - self.measured.get(site_code, 0.0))

    def max_error(self) -> float:
        """Worst per-site absolute error."""
        return max((self.error_of(code) for code in self.site_codes), default=0.0)


def measured_site_load(routing: RoutingOutcome, estimate: LoadEstimate) -> SiteLoad:
    """Ground-truth per-site load: every block routed by actual catchment.

    This is what the service's own logs would report — no block is
    "unmappable" because the server sees traffic regardless of whether
    the block answers pings.
    """
    site_codes = routing.policy.site_codes
    return accumulate_site_load(site_codes, routing.sites_of(estimate.blocks), estimate)


def compare_prediction(
    predicted: SiteLoad, measured: SiteLoad
) -> PredictionComparison:
    """Compare two site-load distributions as known-site fractions."""
    site_codes = predicted.site_codes
    return PredictionComparison(
        site_codes=site_codes,
        predicted=predicted.fractions(),
        measured=measured.fractions(),
    )
