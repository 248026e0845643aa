"""Atlas vs Verfploeter coverage comparison (paper Table 4, §5.3)."""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.analysis.results import CoverageComparison
from repro.atlas.platform import AtlasMeasurement
from repro.collector.results import ScanResult
from repro.topology.internet import Internet


def compare_coverage(
    atlas: AtlasMeasurement, scan: ScanResult, internet: Internet
) -> CoverageComparison:
    """Build the Table 4 comparison from one Atlas and one Verfploeter run."""
    atlas_blocks: Set[int] = atlas.responding_blocks()
    verf_blocks: Set[int] = set(scan.catchment.blocks())
    overlap = atlas_blocks & verf_blocks
    verf_geolocatable = int(
        np.count_nonzero(internet.geodb.join(scan.catchment.mapped_block_array())[1])
    )
    return CoverageComparison(
        atlas_considered_vps=atlas.considered_vps,
        atlas_considered_blocks=len(atlas.considered_blocks()),
        atlas_nonresponding_vps=atlas.considered_vps - atlas.responding_vps,
        atlas_nonresponding_blocks=(
            len(atlas.considered_blocks()) - len(atlas_blocks)
        ),
        atlas_responding_vps=atlas.responding_vps,
        atlas_responding_blocks=len(atlas_blocks),
        # Atlas VP locations are registered at deployment, so every
        # responding block is geolocatable (paper: "no location: 0").
        atlas_geolocatable_blocks=len(atlas_blocks),
        atlas_unique_blocks=len(atlas_blocks - verf_blocks),
        verf_considered_blocks=scan.stats.probes_sent,
        verf_nonresponding_blocks=scan.stats.probes_sent - scan.stats.kept,
        verf_responding_blocks=len(verf_blocks),
        verf_no_location_blocks=len(verf_blocks) - verf_geolocatable,
        verf_geolocatable_blocks=verf_geolocatable,
        verf_unique_blocks=len(verf_blocks - atlas_blocks),
        overlap_blocks=len(overlap),
    )
