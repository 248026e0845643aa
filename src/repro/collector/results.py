"""Scan result value types.

These are produced by the measurement drivers in :mod:`repro.core`
but consumed throughout the analysis layer, so they live here (the
collector layer) to keep analysis below core in the layer DAG.

``BlockValueMap`` is the columnar companion of the catchment map: an
immutable ``Mapping[int, float]`` backed by a sorted block array plus a
value array, so a scan hands per-block RTTs to the analysis layer
without materialising a Python dict per round.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.anycast.catchment import CatchmentMap
from repro.errors import BlockLookupError, DatasetError

_PROBE_BYTES = 28 + 11  # IPv4 + ICMP headers + default payload


class BlockValueMap(MappingABC):
    """Columnar ``{block: float}`` mapping over sorted block keys.

    Behaves like a read-only dict (iteration, ``in``, ``.items()``,
    ``.get()``, equality against any mapping) while keeping the data as
    two parallel numpy arrays for vectorised consumers.
    """

    __slots__ = ("_blocks", "_values")

    def __init__(self, blocks: np.ndarray, values: np.ndarray) -> None:
        blocks = np.asarray(blocks, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if blocks.shape != values.shape or blocks.ndim != 1:
            raise DatasetError("blocks and values must be 1-D arrays of equal length")
        if blocks.size > 1 and not (np.diff(blocks) > 0).all():
            raise DatasetError("blocks must be strictly ascending")
        self._blocks = blocks
        self._values = values

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]) -> "BlockValueMap":
        """Build one from a plain ``{block: value}`` mapping."""
        blocks = sorted(mapping)
        return cls(
            np.asarray(blocks, dtype=np.int64),
            np.asarray([mapping[block] for block in blocks], dtype=np.float64),
        )

    def block_array(self) -> np.ndarray:
        """The sorted block keys (do not mutate)."""
        return self._blocks

    def value_array(self) -> np.ndarray:
        """Values aligned with :meth:`block_array` (do not mutate)."""
        return self._values

    def _row_of(self, block: object) -> Optional[int]:
        try:
            key = int(block)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        if block != key:  # e.g. 3.5 must not match block 3 (dict semantics)
            return None
        if self._blocks.size == 0 or not -(2**63) <= key < 2**63:
            return None
        pos = int(np.searchsorted(self._blocks, key))
        if pos >= self._blocks.size or int(self._blocks[pos]) != key:
            return None
        return pos

    def __len__(self) -> int:
        return int(self._blocks.size)

    def __iter__(self) -> Iterator[int]:
        return (int(block) for block in self._blocks)

    def __getitem__(self, block: int) -> float:
        row = self._row_of(block)
        if row is None:
            raise BlockLookupError(block)
        return float(self._values[row])

    def items(self) -> Iterator[Tuple[int, float]]:  # type: ignore[override]
        """All ``(block, value)`` pairs, ascending by block."""
        return (
            (int(block), float(value))
            for block, value in zip(self._blocks, self._values)
        )


@dataclass(frozen=True)
class ScanStats:
    """Bookkeeping of one scan (paper §4 cleaning numbers)."""

    probes_sent: int
    replies_received: int
    wrong_round: int
    unsolicited: int
    late: int
    duplicates: int
    kept: int

    @property
    def response_rate(self) -> float:
        """Fraction of probed blocks that yielded a kept reply."""
        return self.kept / self.probes_sent if self.probes_sent else 0.0

    @property
    def traffic_megabytes(self) -> float:
        """Probe traffic volume (the paper reports ~128 MB per round)."""
        return self.probes_sent * _PROBE_BYTES / 1e6


@dataclass
class ScanResult:
    """One completed Verfploeter measurement round.

    ``rtts`` maps each mapped block to the measured round-trip time in
    milliseconds (probe transmission to first kept reply) — the raw
    material for latency analysis and site-placement suggestions.
    """

    dataset_id: str
    round_id: int
    start_time: float
    duration_seconds: float
    catchment: CatchmentMap
    stats: ScanStats
    rtts: Optional[BlockValueMap] = None

    @property
    def mapped_blocks(self) -> int:
        """Blocks with a measured catchment."""
        return len(self.catchment)

    def median_rtt_of_site(self, site_code: str) -> Optional[float]:
        """Median measured RTT (ms) of blocks in ``site_code``'s catchment."""
        site_index = self.catchment.index_of_site(site_code)
        if not self.rtts or site_index is None:
            return None
        indices = self.catchment.site_indices_of(self.rtts.block_array())
        values = np.sort(self.rtts.value_array()[indices == site_index])
        if values.size == 0:
            return None
        return float(values[values.size // 2])
