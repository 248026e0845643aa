"""Day-long query-load datasets.

A :class:`DayLoad` is the cleaned, aggregated form of a day of server
logs: for every source /24 block, hourly query counts plus the
fractions of queries that produced good replies and any reply at all
(the paper separates queries / good replies / all replies, §3.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.errors import DatasetError

HOURS = 24


class LoadKind:
    """The three load measures of paper §3.2."""

    QUERIES = "queries"
    GOOD_REPLIES = "good_replies"
    ALL_REPLIES = "all_replies"

    ALL = (QUERIES, GOOD_REPLIES, ALL_REPLIES)


class DayLoad:
    """Hourly per-/24 load for one day of one service."""

    def __init__(
        self,
        service_name: str,
        date_label: str,
        blocks: Iterable[int],
        queries: np.ndarray,
        good_fraction: np.ndarray,
        reply_fraction: np.ndarray,
    ) -> None:
        self.service_name = service_name
        self.date_label = date_label
        if isinstance(blocks, np.ndarray):
            # Keep array inputs as-is (including read-only memmaps from
            # a persisted table store) — no per-element Python pass.
            self.blocks = blocks.astype(np.int64, copy=False)
        else:
            self.blocks = np.asarray(list(blocks), dtype=np.int64)
        if self.blocks.size and np.any(np.diff(self.blocks) <= 0):
            raise DatasetError("blocks must be strictly ascending")
        self.queries = np.asarray(queries, dtype=np.float64)
        self.good_fraction = np.asarray(good_fraction, dtype=np.float64)
        self.reply_fraction = np.asarray(reply_fraction, dtype=np.float64)
        n = self.blocks.size
        if self.queries.shape != (n, HOURS):
            raise DatasetError(
                f"queries shape {self.queries.shape} != ({n}, {HOURS})"
            )
        if self.good_fraction.shape != (n,) or self.reply_fraction.shape != (n,):
            raise DatasetError("fraction arrays must be one value per block")
        self._index_cache: Optional[Dict[int, int]] = None

    @property
    def _index(self) -> Dict[int, int]:
        """Block -> row lookup, built lazily.

        Columnar consumers never touch it, so a memmap-backed day
        cold-starts without a million-entry dict build.
        """
        if self._index_cache is None:
            self._index_cache = {
                int(block): row for row, block in enumerate(self.blocks)
            }
        return self._index_cache

    def __len__(self) -> int:
        return self.blocks.size

    def row_of(self, block: int) -> Optional[int]:
        """Row index of ``block`` or None."""
        return self._index.get(block)

    # -- daily totals -----------------------------------------------------

    def daily_queries(self) -> np.ndarray:
        """Per-block queries/day."""
        return self.queries.sum(axis=1)

    def daily_of_kind(self, kind: str) -> np.ndarray:
        """Per-block daily totals of ``kind``."""
        daily = self.daily_queries()
        if kind == LoadKind.QUERIES:
            return daily
        if kind == LoadKind.GOOD_REPLIES:
            return daily * self.good_fraction
        if kind == LoadKind.ALL_REPLIES:
            return daily * self.reply_fraction
        raise DatasetError(f"unknown load kind {kind!r}")

    def total_queries(self) -> float:
        """Queries/day across all blocks."""
        return float(self.queries.sum())

    def mean_qps(self) -> float:
        """Mean queries/second over the day."""
        return self.total_queries() / 86_400.0

    def hourly_totals(self) -> np.ndarray:
        """Total queries per hour (length-24 vector)."""
        return self.queries.sum(axis=0)

    # -- transforms ---------------------------------------------------------

    def scaled(self, factor: float) -> "DayLoad":
        """A copy with all query counts multiplied by ``factor``."""
        if factor <= 0:
            raise DatasetError("scale factor must be positive")
        return DayLoad(
            self.service_name,
            self.date_label,
            self.blocks,
            self.queries * factor,
            self.good_fraction,
            self.reply_fraction,
        )
