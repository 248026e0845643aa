"""Block-level geolocation database (MaxMind GeoLite stand-in).

The paper geolocates responding /24 blocks with MaxMind, noting accuracy
is reasonable at country level.  Our database maps block ids to
``GeoRecord`` entries and deliberately leaves a small fraction of blocks
unlocatable (the paper discards 678 of 3.8M blocks for this reason).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class GeoRecord:
    """Geolocation of one /24 block."""

    country_code: str
    latitude: float
    longitude: float


@dataclass(frozen=True)
class GeoColumns:
    """Columnar snapshot of a :class:`GeoDatabase`.

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

    @classmethod
    def from_rows(
        cls,
        blocks: Sequence[int],
        country_codes: Sequence[str],
        latitudes: Sequence[float],
        longitudes: Sequence[float],
    ) -> "GeoColumns":
        """Columns from parallel per-block sequences (``blocks`` ascending)."""
        countries = tuple(sorted(set(country_codes)))
        country_row = {code: row for row, code in enumerate(countries)}
        return cls(
            blocks=np.asarray(blocks, dtype=np.int64),
            latitudes=np.asarray(latitudes, dtype=np.float64),
            longitudes=np.asarray(longitudes, dtype=np.float64),
            country_index=np.fromiter(
                map(country_row.__getitem__, country_codes),
                dtype=np.int32,
                count=len(country_codes),
            ),
            countries=countries,
        )


class GeoDatabase:
    """Maps /24 block ids to :class:`GeoRecord` entries."""

    def __init__(self) -> None:
        self._records: Dict[int, GeoRecord] = {}
        self._columns: Optional[GeoColumns] = None
        self._columns_pid: Optional[int] = None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, block: int) -> bool:
        return block in self._records

    def add(self, block: int, record: GeoRecord) -> None:
        """Register the location of ``block`` (replacing any previous one)."""
        self._records[block] = record
        self._columns = None
        self._columns_pid = None

    def add_many(self, entries: Iterable[Tuple[int, GeoRecord]]) -> None:
        """Bulk insert ``(block, record)`` pairs."""
        self._records.update(entries)
        self._columns = None
        self._columns_pid = None

    def locate(self, block: int) -> Optional[GeoRecord]:
        """Return the record for ``block`` or None when unlocatable."""
        return self._records.get(block)

    def country_of(self, block: int) -> Optional[str]:
        """Country code for ``block`` or None when unlocatable."""
        record = self._records.get(block)
        return record.country_code if record is not None else None

    def items(self) -> Iterator[Tuple[int, GeoRecord]]:
        """Yield all ``(block, record)`` pairs."""
        return iter(self._records.items())

    def require(self, block: int) -> GeoRecord:
        """Return the record for ``block`` or raise :class:`DatasetError`."""
        record = self._records.get(block)
        if record is None:
            raise DatasetError(f"block {block} has no geolocation")
        return record

    def columnar(self) -> GeoColumns:
        """Cached columnar snapshot, rebuilt after any insert.

        One Python pass over the records; every later consumer joins
        against the sorted block array with ``searchsorted`` instead of
        issuing a dict probe per block.
        """
        if self._columns is None or self._columns_pid != os.getpid():
            records = sorted(self._records.items())
            self._columns = GeoColumns.from_rows(
                [block for block, _ in records],
                [record.country_code for _, record in records],
                [record.latitude for _, record in records],
                [record.longitude for _, record in records],
            )
            self._columns_pid = os.getpid()
        return self._columns

    def attach_columns(self, columns: GeoColumns) -> None:
        """Adopt a prebuilt (possibly memory-mapped) columnar snapshot.

        Persisted scenarios re-attach their snapshot instead of paying
        the per-record Python rebuild.  The row count must match the
        database; contents are trusted (fingerprint-keyed).
        """
        if columns.blocks.shape != (len(self._records),):
            raise DatasetError(
                "attached geo columns do not match the database size"
            )
        self._columns = columns
        self._columns_pid = os.getpid()

    def join(self, blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Locate many blocks at once.

        Returns ``(rows, located)``: for each of ``blocks``, its row in
        the :meth:`columnar` arrays (meaningless where ``located`` is
        False) and whether the database knows it.
        """
        return join_sorted(self.columnar().blocks, blocks)

    def country_values(self, blocks: np.ndarray, value_of, unlocated) -> np.ndarray:
        """``value_of(country code)`` per block, ``unlocated`` where the
        database has no row: a per-country scalar broadcast over blocks."""
        columns = self.columnar()
        rows, located = self.join(blocks)
        table = np.array([value_of(code) for code in columns.countries] + [unlocated])
        index = np.full(rows.shape, -1)  # the appended ``unlocated`` entry
        index[located] = columns.country_index[rows[located]]
        return table[index]
