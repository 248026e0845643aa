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

import numpy as np

from repro.bgp.propagation import RoutingOutcome
from repro.load.estimator import LoadEstimate
from repro.load.weighting import SiteLoad, UNKNOWN
from repro.traffic.logs import HOURS


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
    daily: Dict[str, float] = {code: 0.0 for code in site_codes}
    daily[UNKNOWN] = 0.0
    blocks = estimate.blocks
    daily_values = estimate.source.daily_of_kind(estimate.kind)
    for row, block in enumerate(blocks):
        site = routing.site_of_block(int(block))
        bucket = site if site is not None else UNKNOWN
        daily[bucket] = daily.get(bucket, 0.0) + float(daily_values[row])
    hourly = {code: np.zeros(HOURS) for code in (*site_codes, UNKNOWN)}
    return SiteLoad(site_codes, daily, hourly)


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
