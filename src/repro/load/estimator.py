"""Per-block load estimates derived from historical logs."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.traffic.logs import DayLoad, LoadKind


class LoadEstimate:
    """Per-/24 daily load of one kind, derived from a :class:`DayLoad`.

    This is the calibration weight Verfploeter attaches to each block:
    whatever the catchment says about *where* a block goes, the estimate
    says *how much* traffic goes with it.
    """

    def __init__(self, load: DayLoad, kind: str = LoadKind.QUERIES) -> None:
        if kind not in LoadKind.ALL:
            raise DatasetError(f"unknown load kind {kind!r}")
        self.kind = kind
        self.source = load
        self._daily = load.daily_of_kind(kind)
        self._row_of = load.row_of
        self._hourly_matrix: "np.ndarray | None" = None

    def __len__(self) -> int:
        return len(self.source)

    @property
    def blocks(self) -> np.ndarray:
        """Blocks with recorded traffic."""
        return self.source.blocks

    @property
    def daily(self) -> np.ndarray:
        """Daily load of every block, rows aligned with :attr:`blocks`
        (computed once per estimate; do not mutate)."""
        return self._daily

    def of_block(self, block: int) -> float:
        """Daily load of ``block`` (0.0 when it sent nothing)."""
        row = self._row_of(block)
        return float(self._daily[row]) if row is not None else 0.0

    def total(self) -> float:
        """Total daily load across all blocks."""
        return float(self._daily.sum())

    def hourly_of_block(self, block: int) -> np.ndarray:
        """Hourly load vector of ``block`` (zeros when absent)."""
        row = self._row_of(block)
        if row is None:
            return np.zeros(self.source.queries.shape[1])
        scale = 1.0
        if self.kind == LoadKind.GOOD_REPLIES:
            scale = float(self.source.good_fraction[row])
        elif self.kind == LoadKind.ALL_REPLIES:
            scale = float(self.source.reply_fraction[row])
        return self.source.queries[row] * scale

    def hourly_matrix(self) -> np.ndarray:
        """Hourly load of every block at once, rows aligned with :attr:`blocks`.

        Row ``r`` equals ``hourly_of_block(blocks[r])`` bit-for-bit: the
        per-kind scale is applied as the same elementwise float64
        multiply the scalar path performs.  The matrix is computed once
        and cached — one estimate typically weights many scan rounds.
        """
        if self._hourly_matrix is None:
            queries = self.source.queries
            if self.kind == LoadKind.GOOD_REPLIES:
                self._hourly_matrix = queries * self.source.good_fraction[:, None]
            elif self.kind == LoadKind.ALL_REPLIES:
                self._hourly_matrix = queries * self.source.reply_fraction[:, None]
            else:
                self._hourly_matrix = queries
        return self._hourly_matrix

    def hourly_totals(self) -> np.ndarray:
        """Total load per UTC hour across all blocks (length-24 vector)."""
        return self.hourly_matrix().sum(axis=0)

    def peak_qph(self) -> float:
        """Peak queries/hour over the day (max of :meth:`hourly_totals`).

        Peak vs mean matters: capacity planning throughout the repo
        compares **peaks** against provisioned capacity
        (:func:`repro.load.weighting.capacity_violations`), because
        diurnal days and volumetric attacks concentrate load into a few
        bins.  :meth:`mean_qph` exists for reporting ratios only — it
        must never be the quantity compared against a capacity.
        """
        return float(self.hourly_totals().max())

    def mean_qph(self) -> float:
        """Mean queries/hour over the day (total / 24).

        Reporting-only companion to :meth:`peak_qph` — see the
        peak-vs-mean note there.
        """
        return self.total() / 24.0

    def heaviest(self, count: int) -> List[Tuple[int, float]]:
        """Heaviest ``count`` blocks as ``(block, daily load)``.

        Ties break toward the lower block id.  ``lexsort`` is a stable
        sort with an explicit secondary key; a plain ``argsort`` on the
        float loads would order tied blocks by numpy's unstable
        quicksort partitioning — a platform-dependent result.
        """
        order = np.lexsort((self.blocks, -self._daily))[:count]
        return [(int(self.blocks[i]), float(self._daily[i])) for i in order]

    def as_dict(self) -> Dict[int, float]:
        """Snapshot mapping block -> daily load."""
        return {
            int(block): float(value)
            for block, value in zip(self.blocks, self._daily)
        }
