"""RSSAC-002-style daily reporting.

Root operators publish standardised daily measurements (RSSAC-002);
the paper leans on this: "all root operators collect this information
as part of standard RSSAC-002 performance reporting" (§3.2).  This
module holds the report *value types* and renderer the reproduction
needs: per-site daily query/response volumes and the unique-sources
count, rendered as the traditional YAML-ish document.  The aggregation
that builds a report from logs and routing lives in
:func:`repro.load.rssac.build_rssac_report` — it needs the load
estimator, which sits a layer above this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TextIO


@dataclass(frozen=True)
class SiteTrafficReport:
    """One site's daily traffic block in the report."""

    site_code: str
    queries: float
    responses: float
    unique_sources: int


@dataclass
class Rssac002Report:
    """A day-level traffic report for one anycast service."""

    service_name: str
    date_label: str
    total_queries: float
    total_responses: float
    unique_sources: int
    sites: List[SiteTrafficReport]

    def write(self, stream: TextIO) -> None:
        """Render the report in RSSAC-002's YAML-like style."""
        stream.write("---\n")
        stream.write(f"service: {self.service_name}\n")
        stream.write(f"start-period: {self.date_label}\n")
        stream.write("metric: traffic-volume\n")
        stream.write(f"dns-udp-queries-received: {self.total_queries:.0f}\n")
        stream.write(f"dns-udp-responses-sent: {self.total_responses:.0f}\n")
        stream.write(f"unique-sources: {self.unique_sources}\n")
        stream.write("sites:\n")
        for entry in self.sites:
            stream.write(f"  - site: {entry.site_code}\n")
            stream.write(f"    queries: {entry.queries:.0f}\n")
            stream.write(f"    responses: {entry.responses:.0f}\n")
            stream.write(f"    unique-sources: {entry.unique_sources}\n")
