"""Site-placement suggestions from Verfploeter RTTs (paper §7).

The paper's future-work idea, implemented: the RTT of each mapped block
to its serving site reveals regions that are poorly served; clustering
the high-RTT, high-weight blocks geographically suggests where a new
anycast site would help most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.collector.results import ScanResult
from repro.errors import ConfigurationError
from repro.geo.geodb import GeoDatabase
from repro.geo.grid import GeoGrid
from repro.load.estimator import LoadEstimate


@dataclass(frozen=True)
class PlacementSuggestion:
    """One candidate location for a new anycast site."""

    latitude: float
    longitude: float
    affected_blocks: int
    affected_weight: float
    median_rtt_ms: float

    def __str__(self) -> str:
        return (
            f"({self.latitude:+.0f}, {self.longitude:+.0f}): "
            f"{self.affected_blocks} blocks, median RTT "
            f"{self.median_rtt_ms:.0f} ms"
        )


def underserved_blocks(
    scan: ScanResult, rtt_threshold_ms: float = 120.0
) -> Dict[int, float]:
    """Blocks whose measured RTT to their serving site exceeds threshold."""
    if not scan.rtts:
        return {}
    return {
        block: rtt for block, rtt in scan.rtts.items() if rtt > rtt_threshold_ms
    }


def suggest_sites(
    scan: ScanResult,
    geodb: GeoDatabase,
    count: int = 3,
    rtt_threshold_ms: float = 120.0,
    cell_degrees: float = 10.0,
    estimate: Optional[LoadEstimate] = None,
) -> List[PlacementSuggestion]:
    """Suggest up to ``count`` locations for new anycast sites.

    Bins every underserved block into coarse geographic cells, weighting
    by query load when an estimate is given (latency relief matters most
    where the traffic is), and returns the heaviest cells' centroids.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    slow = underserved_blocks(scan, rtt_threshold_ms)
    if not slow:
        return []
    grid = GeoGrid(cell_degrees)
    cell_blocks: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
    located, lats, lons = geodb.coordinates(np.fromiter(slow, dtype=np.int64, count=len(slow)))
    placed = [item for item, here in zip(slow.items(), located.tolist()) if here]
    for (block, rtt), lat, lon in zip(placed, lats, lons):
        weight = estimate.of_block(block) if estimate is not None else 1.0
        if weight <= 0:
            weight = 0.01  # quiet blocks still deserve some pull
        grid.add(lat, lon, "slow", weight)
        key = (int((lat + 90.0) // cell_degrees), int((lon + 180.0) // cell_degrees))
        cell_blocks.setdefault(key, []).append((block, rtt))
    suggestions: List[PlacementSuggestion] = []
    for cell in grid.top_cells(count):
        key = (cell.lat_index, cell.lon_index)
        members = cell_blocks.get(key, [])
        if not members:
            continue
        rtts = sorted(rtt for _, rtt in members)
        suggestions.append(
            PlacementSuggestion(
                latitude=cell.lat_index * cell_degrees - 90.0 + cell_degrees / 2,
                longitude=cell.lon_index * cell_degrees - 180.0 + cell_degrees / 2,
                affected_blocks=len(members),
                affected_weight=cell.total,
                median_rtt_ms=rtts[len(rtts) // 2],
            )
        )
    return suggestions


def rtt_summary_by_site(scan: ScanResult) -> Dict[str, Tuple[int, float]]:
    """Per-site (mapped blocks, median RTT ms) from one scan."""
    summary: Dict[str, Tuple[int, float]] = {}
    for site in scan.catchment.site_codes:
        median = scan.median_rtt_of_site(site)
        if median is not None:
            summary[site] = (len(scan.catchment.blocks_of_site(site)), median)
    return summary
