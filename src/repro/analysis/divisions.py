"""Figures 7 and 8: catchment divisions within ASes and prefixes.

The paper shows that one vantage point per AS is not enough: ~12.7% of
ASes are served by more than one anycast site (hot-potato splits), and
larger announced prefixes are usually split.  These functions compute
both distributions from a (stability-filtered) catchment map.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.anycast.catchment import CatchmentMap
from repro.topology.internet import Internet


def _mapped(catchment: CatchmentMap) -> Tuple[np.ndarray, List[str]]:
    """The mapped blocks, ascending, and the site code of each."""
    codes, sites = catchment.site_codes, catchment.site_index_array
    return catchment.mapped_block_array(), [codes[site] for site in sites[sites >= 0].tolist()]


def sites_seen_per_as(
    catchment: CatchmentMap, internet: Internet
) -> Dict[int, int]:
    """Distinct sites seen by each AS's mapped blocks (ASN -> site count)."""
    blocks, sites = _mapped(catchment)
    sites_by_as: Dict[int, set] = {}
    for asn, site in zip(internet.asns_of_blocks(blocks).tolist(), sites):
        sites_by_as.setdefault(asn, set()).add(site)
    return {asn: len(sites) for asn, sites in sites_by_as.items()}


def multi_site_fraction(catchment: CatchmentMap, internet: Internet) -> float:
    """Share of (observed) ASes served by more than one site (paper: 12.7%)."""
    counts = sites_seen_per_as(catchment, internet)
    if not counts:
        return 0.0
    return sum(1 for count in counts.values() if count > 1) / len(counts)


def prefixes_by_sites_seen(
    catchment: CatchmentMap, internet: Internet
) -> Dict[int, List[int]]:
    """Figure 7 input: sites-seen -> announced-prefix counts of those ASes."""
    site_counts = sites_seen_per_as(catchment, internet)
    announced = Counter(internet.prefixes[2].tolist())
    result: Dict[int, List[int]] = {}
    for asn, sites in site_counts.items():
        result.setdefault(sites, []).append(announced[asn])
    return result


def _percentile(values: List[int], fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return float(ordered[index])


def format_as_division_table(catchment: CatchmentMap, internet: Internet) -> str:
    """Render Figure 7 as a table: prefixes announced vs sites seen."""
    data = prefixes_by_sites_seen(catchment, internet)
    rows = []
    for sites in sorted(data):
        values = data[sites]
        rows.append(
            (
                sites,
                len(values),
                _percentile(values, 0.05),
                _percentile(values, 0.25),
                _percentile(values, 0.50),
                _percentile(values, 0.75),
                _percentile(values, 0.95),
            )
        )
    table = render_table(
        ["sites seen", "ASes", "p5", "p25", "median", "p75", "p95"],
        rows,
        title="Figure 7: announced prefixes vs sites seen per AS",
    )
    fraction = multi_site_fraction(catchment, internet)
    return f"{table}\nASes seeing multiple sites: {fraction:.1%}"


def prefix_site_distribution(
    catchment: CatchmentMap, internet: Internet
) -> Dict[int, Dict[int, int]]:
    """Figure 8 input: prefix length -> {sites seen -> prefix count}.

    Only prefixes with at least one mapped block are counted, matching
    the paper's per-announced-prefix analysis.
    """
    blocks, sites = _mapped(catchment)
    sites_by_prefix: Dict[int, set] = {}
    for index, site in zip(internet.announced_index_of(blocks).tolist(), sites):
        if index >= 0:
            sites_by_prefix.setdefault(index, set()).add(site)
    distribution: Dict[int, Dict[int, int]] = {}
    for index, seen in sites_by_prefix.items():
        length = int(internet.prefixes[1, index])
        bucket = distribution.setdefault(length, {})
        bucket[len(seen)] = bucket.get(len(seen), 0) + 1
    return distribution


def format_prefix_division_table(
    catchment: CatchmentMap, internet: Internet, max_sites: int = 6
) -> str:
    """Render Figure 8 as a table of fractions per prefix length."""
    distribution = prefix_site_distribution(catchment, internet)
    rows = []
    for length in sorted(distribution):
        bucket = distribution[length]
        total = sum(bucket.values())
        fractions = [
            bucket.get(sites, 0) / total for sites in range(1, max_sites + 1)
        ]
        rows.append(
            (
                f"{total} x /{length}",
                *[f"{fraction:.2f}" for fraction in fractions],
            )
        )
    return render_table(
        ["prefixes", *[f"{s} site(s)" for s in range(1, max_sites + 1)]],
        rows,
        title="Figure 8: sites seen per announced prefix, by prefix length",
    )
