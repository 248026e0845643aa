"""Experiment result value types consumed across the analysis layer.

Produced by the drivers in :mod:`repro.core.experiments` and
:mod:`repro.core.comparison`, but defined here so analysis modules can
depend on them without importing ``core`` (which sits above ``analysis``
in the layer DAG — see :mod:`repro.lint.layers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.anycast.catchment import CatchmentMap
from repro.bgp.policy import AnnouncementPolicy
from repro.collector.results import ScanResult


@dataclass(frozen=True)
class PrependMeasurement:
    """One prepending configuration measured with both systems."""

    label: str
    policy: AnnouncementPolicy
    atlas_fractions: Dict[str, float]
    verfploeter_fractions: Dict[str, float]
    catchment: CatchmentMap

    def atlas_fraction_of(self, site_code: str) -> float:
        """Share of Atlas VPs at ``site_code``."""
        return self.atlas_fractions.get(site_code, 0.0)

    def verfploeter_fraction_of(self, site_code: str) -> float:
        """Share of Verfploeter /24s at ``site_code``."""
        return self.verfploeter_fractions.get(site_code, 0.0)


@dataclass(frozen=True)
class StabilityRound:
    """Transitions from the previous round (paper Figure 9 categories)."""

    round_id: int
    stable: int
    flipped: int
    to_nr: int
    from_nr: int


@dataclass
class StabilitySeries:
    """A full stability study: scans plus per-round transitions."""

    scans: List[ScanResult]
    rounds: List[StabilityRound] = field(default_factory=list)
    flip_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def round_count(self) -> int:
        """Number of measurement rounds."""
        return len(self.scans)

    def flipping_blocks(self) -> Set[int]:
        """Blocks that changed catchment at least once."""
        return set(self.flip_counts)

    def total_flips(self) -> int:
        """Total catchment changes observed across the series."""
        return sum(self.flip_counts.values())

    def median_of(self, category: str) -> float:
        """Median per-round count of ``stable``/``flipped``/``to_nr``/``from_nr``."""
        values = sorted(getattr(entry, category) for entry in self.rounds)
        if not values:
            return 0.0
        middle = len(values) // 2
        if len(values) % 2:
            return float(values[middle])
        return (values[middle - 1] + values[middle]) / 2.0

    def stable_catchment(self) -> CatchmentMap:
        """Final-round catchment restricted to never-flipping blocks.

        This is the paper's §6.2 preprocessing: flipping VPs are removed
        before analysing intra-AS divisions, so unstable routing is not
        mistaken for a split AS.
        """
        last = self.scans[-1].catchment
        flipping = self.flipping_blocks()
        mapped = last.mapped_block_array()
        if flipping:
            excluded = np.fromiter(flipping, dtype=np.int64, count=len(flipping))
            mapped = mapped[~np.isin(mapped, excluded)]
        return last.restrict(mapped)


def build_stability_series(scans: Sequence[ScanResult]) -> StabilitySeries:
    """Assemble a :class:`StabilitySeries` from consecutive-round scans.

    Each adjacent pair is diffed via :meth:`CatchmentMap.diff`; when the
    scans share one block universe (the engine's output), every
    per-round diff reduces to elementwise array comparisons.
    """
    series = StabilitySeries(scans=list(scans))
    for index in range(1, len(series.scans)):
        earlier = series.scans[index - 1].catchment
        later = series.scans[index].catchment
        diff = earlier.diff(later)
        series.rounds.append(
            StabilityRound(
                round_id=series.scans[index].round_id,
                stable=diff.stable,
                flipped=diff.flipped,
                to_nr=diff.disappeared,
                from_nr=diff.appeared,
            )
        )
        for block in diff.flipped_blocks:
            series.flip_counts[block] = series.flip_counts.get(block, 0) + 1
    return series


@dataclass(frozen=True)
class CoverageComparison:
    """Every row of the paper's Table 4, for both systems."""

    atlas_considered_vps: int
    atlas_considered_blocks: int
    atlas_nonresponding_vps: int
    atlas_nonresponding_blocks: int
    atlas_responding_vps: int
    atlas_responding_blocks: int
    atlas_geolocatable_blocks: int
    atlas_unique_blocks: int
    verf_considered_blocks: int
    verf_nonresponding_blocks: int
    verf_responding_blocks: int
    verf_no_location_blocks: int
    verf_geolocatable_blocks: int
    verf_unique_blocks: int
    overlap_blocks: int

    @property
    def coverage_ratio(self) -> float:
        """How many times more blocks Verfploeter sees (paper: ~430x)."""
        if self.atlas_responding_blocks == 0:
            return float("inf")
        return self.verf_responding_blocks / self.atlas_responding_blocks

    @property
    def atlas_overlap_fraction(self) -> float:
        """Share of Atlas blocks also seen by Verfploeter (paper: ~77%)."""
        if self.atlas_responding_blocks == 0:
            return 0.0
        return self.overlap_blocks / self.atlas_responding_blocks
