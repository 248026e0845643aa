"""Catchment containment: do catchments respect borders?

The paper's opening motivation (§1): catchments interact with national
filtering policies — the Beijing I-Root site once served queries from
outside China (exporting censorship), and a Tehran K-Root site's
catchment leaked beyond Iran.  Given a catchment map, this module
measures both directions of mismatch for a (country, site) pairing:

* **leakage** — blocks *outside* the country served by its site;
* **escape** — blocks *inside* the country served by other sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.report import render_table
from repro.anycast.catchment import CatchmentMap
from repro.geo.geodb import GeoDatabase


@dataclass(frozen=True)
class ContainmentReport:
    """Containment of one site relative to one country."""

    site_code: str
    country_code: str
    inside_at_site: int
    inside_elsewhere: int
    outside_at_site: int

    @property
    def leakage_fraction(self) -> float:
        """Share of the site's catchment lying outside the country.

        The I-Root-Beijing failure mode: >0 means foreign networks are
        subject to whatever policy the in-country site applies.
        """
        total = self.inside_at_site + self.outside_at_site
        return self.outside_at_site / total if total else 0.0

    @property
    def containment_fraction(self) -> float:
        """Share of the country's blocks actually served by the site."""
        total = self.inside_at_site + self.inside_elsewhere
        return self.inside_at_site / total if total else 0.0


def containment_report(
    catchment: CatchmentMap,
    geodb: GeoDatabase,
    site_code: str,
    country_code: str,
) -> ContainmentReport:
    """Measure how well ``site_code``'s catchment aligns with a country."""
    sites, inside = _sites_and_inside(catchment, geodb, country_code)
    index = catchment.index_of_site(site_code)
    at_site = sites == (-1 if index is None else index)  # mapped sites are >= 0
    return ContainmentReport(
        site_code=site_code,
        country_code=country_code,
        inside_at_site=int(np.count_nonzero((inside == 1) & at_site)),
        inside_elsewhere=int(np.count_nonzero((inside == 1) & ~at_site)),
        outside_at_site=int(np.count_nonzero((inside == 0) & at_site)),
    )


def _sites_and_inside(catchment: CatchmentMap, geodb: GeoDatabase, country_code: str):
    """Site index of each mapped block, and whether it lies in the country:
    1 inside, 0 outside, -1 unlocatable (one join over the mapped blocks)."""
    sites = catchment.site_index_array
    inside = geodb.country_values(
        catchment.mapped_block_array(), lambda code: int(code == country_code), -1
    )
    return sites[sites >= 0], inside


def country_site_matrix(
    catchment: CatchmentMap, geodb: GeoDatabase, country_code: str
) -> Dict[str, int]:
    """How a country's blocks distribute over sites (who serves them)."""
    sites, inside = _sites_and_inside(catchment, geodb, country_code)
    codes = catchment.site_codes
    counts: Dict[str, int] = {}
    for site in sites[inside == 1].tolist():
        counts[codes[site]] = counts.get(codes[site], 0) + 1
    return counts


def format_containment_table(reports: List[ContainmentReport]) -> str:
    """Render containment reports side by side."""
    rows = [
        (
            report.site_code,
            report.country_code,
            report.inside_at_site,
            report.inside_elsewhere,
            report.outside_at_site,
            f"{report.containment_fraction:.1%}",
            f"{report.leakage_fraction:.1%}",
        )
        for report in reports
    ]
    return render_table(
        ["site", "country", "inside@site", "inside@other",
         "outside@site", "containment", "leakage"],
        rows,
        title="Catchment containment vs national borders (paper §1)",
    )
