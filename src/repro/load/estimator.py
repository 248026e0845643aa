"""Per-block load estimates derived from historical logs."""

from __future__ import annotations

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

    def hourly_matrix(self) -> np.ndarray:
        """Hourly load of every block at once, rows aligned with :attr:`blocks`.

        Row ``r`` is block ``blocks[r]``'s queries times its per-kind
        reply fraction.  The matrix is computed once and cached — one
        estimate typically weights many scan rounds.
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
        bins.
        """
        return float(self.hourly_totals().max())
