"""Plain-dict model of a catchment map: what :class:`CatchmentMap` is held to.

A catchment is a ``{block: site}`` dict; each function here is the
obvious loop over it.  The columnar map and the load join must agree
with these exactly — counts, float fractions, diff categories with
sorted flipped blocks, and bit-equal per-site loads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.anycast.catchment import CatchmentDiff
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN, SiteLoad
from repro.traffic.logs import HOURS


def counts(site_codes: Sequence[str], mapping: Mapping[int, str]) -> Dict[str, int]:
    """Blocks per site, sites with zero blocks included."""
    tally = {code: 0 for code in site_codes}
    for site in mapping.values():
        tally[site] += 1
    return tally


def fractions(site_codes: Sequence[str], mapping: Mapping[int, str]) -> Dict[str, float]:
    """Share of mapped blocks per site (all zero for an empty map)."""
    if not mapping:
        return {code: 0.0 for code in site_codes}
    return {code: n / len(mapping) for code, n in counts(site_codes, mapping).items()}


def blocks_of_site(mapping: Mapping[int, str], site_code: str) -> List[int]:
    """Blocks in ``site_code``'s catchment, ascending."""
    return sorted(block for block, site in mapping.items() if site == site_code)


def restrict(mapping: Mapping[int, str], blocks: Iterable[int]) -> Dict[int, str]:
    """The entries of ``mapping`` whose block is in ``blocks``."""
    keep = set(blocks)
    return {block: site for block, site in mapping.items() if block in keep}


def diff(earlier: Mapping[int, str], later: Mapping[int, str]) -> CatchmentDiff:
    """The paper's Figure 9 categories, comparing site codes block by block."""
    both = sorted(set(earlier) & set(later))
    flipped = tuple(block for block in both if earlier[block] != later[block])
    return CatchmentDiff(
        stable=len(both) - len(flipped),
        flipped=len(flipped),
        appeared=len(set(later) - set(earlier)),
        disappeared=len(set(earlier) - set(later)),
        flipped_blocks=flipped,
    )


def site_load(
    site_codes: Sequence[str], mapping: Mapping[int, str], estimate: LoadEstimate
) -> SiteLoad:
    """Each traffic block's load added to its site (``UNK`` when unmapped),
    one block at a time in traffic-row order."""
    buckets = [*site_codes, UNKNOWN]
    daily = {code: 0.0 for code in buckets}
    hourly = {code: np.zeros(HOURS) for code in buckets}
    daily_values = estimate.source.daily_of_kind(estimate.kind)
    hourly_rows = estimate.hourly_matrix()
    for row, block in enumerate(estimate.blocks):
        bucket = mapping.get(int(block), UNKNOWN)
        daily[bucket] += float(daily_values[row])
        hourly[bucket] += hourly_rows[row]
    return SiteLoad(list(site_codes), daily, hourly)
