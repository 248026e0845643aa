"""Block-level geolocation database (MaxMind GeoLite stand-in).

The paper geolocates responding /24 blocks with MaxMind, noting accuracy
is reasonable at country level.  Our database holds the located block
ids and their locations as sorted columns, and deliberately leaves a
small fraction of blocks unlocatable (the paper discards 678 of 3.8M
blocks for this reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import DatasetError


def join_sorted(table: np.ndarray, blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, found)``: where each of ``blocks`` sits in the ascending
    ``table`` and whether it is there (rows are meaningless where not)."""
    keys = np.asarray(blocks, dtype=np.int64)
    if table.size == 0 or keys.size == 0:
        return np.zeros(keys.shape, dtype=np.int64), np.zeros(keys.shape, dtype=bool)
    rows = np.minimum(np.searchsorted(table, keys), table.size - 1)
    return rows, table[rows] == keys


def row_of(table: np.ndarray, block: int) -> int:
    """Row of ``block`` in the ascending ``table``, or -1 when absent
    (:func:`join_sorted` for one block, at a quarter of its cost)."""
    row = int(table.searchsorted(block)) if 0 <= block < 2**63 else table.size
    return row if row < table.size and table[row] == block else -1


@dataclass(frozen=True)
class GeoRecord:
    """Geolocation of one /24 block."""

    country_code: str
    latitude: float
    longitude: float


@dataclass(frozen=True)
class GeoColumns:
    """The columns a :class:`GeoDatabase` holds.

    ``blocks`` ascend; ``latitudes``/``longitudes``/``country_index``
    align row-for-row.  ``country_index`` indexes into ``countries``
    (sorted unique country codes) so per-country scalars — e.g. host
    responsiveness — can be broadcast over all located blocks at once.
    """

    blocks: np.ndarray
    latitudes: np.ndarray
    longitudes: np.ndarray
    country_index: np.ndarray
    countries: Tuple[str, ...]


class GeoDatabase:
    """Maps /24 block ids to their geolocation, held as :class:`GeoColumns`."""

    def __init__(self, columns: Optional[GeoColumns] = None) -> None:
        if columns is None:
            empty = np.zeros(0)
            columns = GeoColumns(empty.astype(np.int64), empty, empty, empty.astype(np.int32), ())
        aligned = (columns.latitudes, columns.longitudes, columns.country_index)
        if columns.blocks.ndim != 1 or any(c.shape != columns.blocks.shape for c in aligned):
            raise DatasetError("geo columns do not align row for row")
        for column in (columns.blocks, *aligned):
            column.setflags(write=False)
        self._columns = columns

    def _record(self, row: int) -> GeoRecord:
        columns = self._columns
        return GeoRecord(
            columns.countries[columns.country_index[row]],
            float(columns.latitudes[row]),
            float(columns.longitudes[row]),
        )

    def locate(self, block: int) -> Optional[GeoRecord]:
        """Return the record for ``block`` or None when unlocatable."""
        row = row_of(self._columns.blocks, block)
        return self._record(row) if row >= 0 else None

    def require(self, block: int) -> GeoRecord:
        """Return the record for ``block`` or raise :class:`DatasetError`."""
        record = self.locate(block)
        if record is None:
            raise DatasetError(f"block {block} has no geolocation")
        return record

    def columnar(self) -> GeoColumns:
        """The database itself: ascending blocks and their aligned columns."""
        return self._columns

    def join(self, blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Locate many blocks at once.

        Returns ``(rows, located)``: for each of ``blocks``, its row in
        the :meth:`columnar` arrays (meaningless where ``located`` is
        False) and whether the database knows it.
        """
        return join_sorted(self._columns.blocks, blocks)

    def coordinates(self, blocks: np.ndarray) -> Tuple[np.ndarray, list, list]:
        """:meth:`locate` for many blocks: whether each is located, and
        the latitudes and longitudes (floats) of those that are."""
        rows, located = self.join(blocks)
        columns, rows = self._columns, rows[located]
        return located, columns.latitudes[rows].tolist(), columns.longitudes[rows].tolist()

    def country_values(self, blocks: np.ndarray, value_of, unlocated) -> np.ndarray:
        """``value_of(country code)`` per block, ``unlocated`` where the
        database has no row: a per-country scalar broadcast over blocks."""
        columns = self._columns
        rows, located = self.join(blocks)
        table = np.array([value_of(code) for code in columns.countries] + [unlocated])
        index = np.full(rows.shape, -1)  # the appended ``unlocated`` entry
        index[located] = columns.country_index[rows[located]]
        return table[index]
