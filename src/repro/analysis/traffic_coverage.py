"""Table 5: how much of the service's real traffic Verfploeter can map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import render_table
from repro.anycast.catchment import CatchmentMap
from repro.load.estimator import LoadEstimate


@dataclass(frozen=True)
class TrafficCoverage:
    """Blocks and queries seen at the service, split by mappability."""

    blocks_seen: int
    blocks_mapped: int
    queries_seen: float
    queries_mapped: float

    @property
    def blocks_unmapped(self) -> int:
        """Traffic-sending blocks Verfploeter could not map."""
        return self.blocks_seen - self.blocks_mapped

    @property
    def queries_unmapped(self) -> float:
        """Daily queries from unmappable blocks."""
        return self.queries_seen - self.queries_mapped

    @property
    def block_coverage(self) -> float:
        """Fraction of traffic-sending blocks mapped (paper: 87.1%)."""
        return self.blocks_mapped / self.blocks_seen if self.blocks_seen else 0.0

    @property
    def query_coverage(self) -> float:
        """Fraction of queries from mapped blocks (paper: 82.4%)."""
        return self.queries_mapped / self.queries_seen if self.queries_seen else 0.0


def traffic_coverage(
    catchment: CatchmentMap, estimate: LoadEstimate
) -> TrafficCoverage:
    """Compute Table 5 from a measured catchment and a day of logs."""
    daily = estimate.daily
    sending = daily > 0
    volume = daily[sending]
    mapped = (catchment.site_indices_of(estimate.blocks[sending]) >= 0).astype(np.intp)
    # ``bincount`` adds each bin's volumes in row order: the same float
    # sums as a running total over the traffic rows.
    mapped_queries = np.bincount(mapped, volume, minlength=2)
    return TrafficCoverage(
        blocks_seen=int(volume.size),
        blocks_mapped=int(mapped.sum()),
        queries_seen=float(np.bincount(np.zeros_like(mapped), volume, minlength=1)[0]),
        queries_mapped=float(mapped_queries[1]),
    )


def format_traffic_coverage(coverage: TrafficCoverage) -> str:
    """Render Table 5."""
    rows = [
        ("seen at service", coverage.blocks_seen, "100%",
         coverage.queries_seen, "100%"),
        ("mapped by Verfploeter", coverage.blocks_mapped,
         f"{coverage.block_coverage:.1%}",
         coverage.queries_mapped, f"{coverage.query_coverage:.1%}"),
        ("not mappable", coverage.blocks_unmapped,
         f"{1 - coverage.block_coverage:.1%}",
         coverage.queries_unmapped, f"{1 - coverage.query_coverage:.1%}"),
    ]
    return render_table(
        ["", "/24s", "%", "q/day", "%"],
        rows,
        title="Table 5: coverage of Verfploeter from the service's traffic",
    )
