"""IPv4 hitlists: one representative address per /24 block.

Stands in for the ISI IPv4 hitlist the paper uses [17]: for every /24
block, the address historically most likely to respond to pings, with a
score.  Probing one address per block reduces traffic to 0.4% of a full
scan (paper §3.1) at the cost of missing blocks whose representative
happens to be down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.netaddr.blocks import format_block
from repro.rng import mix64_np, uniform_unit_np
from repro.topology.internet import Internet

_SCORE_SALT = 0x53434F52
_HOST_SALT = 0x484F5354


@dataclass(frozen=True)
class HitlistEntry:
    """One hitlist row: the representative address of a /24 block."""

    block: int
    address: int
    score: float

    def __str__(self) -> str:
        return f"{format_block(self.block)} -> {self.address:#010x} ({self.score:.2f})"


class Hitlist:
    """Hitlist rows in block order, held as three read-only columns.

    ``blocks`` / ``addresses`` (int64) and ``scores`` (float64) align
    row for row; a :class:`HitlistEntry` exists only while a caller
    indexes or iterates.
    """

    def __init__(self, entries: Iterable[HitlistEntry]) -> None:
        entries = list(entries)
        self._adopt(
            np.array([entry.block for entry in entries], dtype=np.int64),
            np.array([entry.address for entry in entries], dtype=np.int64),
            np.array([entry.score for entry in entries], dtype=np.float64),
        )

    @classmethod
    def from_columns(
        cls, blocks: np.ndarray, addresses: np.ndarray, scores: np.ndarray
    ) -> "Hitlist":
        """A hitlist over aligned columns (any row order, no duplicates)."""
        hitlist = cls.__new__(cls)
        hitlist._adopt(blocks, addresses, scores)
        return hitlist

    def _adopt(self, blocks: np.ndarray, addresses: np.ndarray, scores: np.ndarray) -> None:
        order = np.argsort(blocks, kind="stable")
        self.blocks, self.addresses, self.scores = blocks[order], addresses[order], scores[order]
        if np.any(np.diff(self.blocks) == 0):
            raise DatasetError("hitlist has duplicate blocks")
        for column in (self.blocks, self.addresses, self.scores):
            column.setflags(write=False)

    def __len__(self) -> int:
        return self.blocks.size

    def _entries(self, rows) -> List[HitlistEntry]:
        """Materialise the rows picked by a slice or an index array."""
        return [
            HitlistEntry(*row)
            for row in zip(
                self.blocks[rows].tolist(),
                self.addresses[rows].tolist(),
                self.scores[rows].tolist(),
            )
        ]

    def __iter__(self) -> Iterator[HitlistEntry]:
        return iter(self._entries(slice(None)))

    def __getitem__(self, index: int) -> HitlistEntry:
        return self._entries([index])[0]

    def entry_for(self, block: int) -> Optional[HitlistEntry]:
        """Entry for ``block`` via binary search, or None."""
        row = int(np.searchsorted(self.blocks, block))
        if row < len(self) and self.blocks[row] == block:
            return self[row]
        return None


def build_hitlist(
    internet: Internet, blocks: Optional[Sequence[int]] = None
) -> Hitlist:
    """Build the hitlist for ``internet``.

    Covers every populated block (or the given subset).  The chosen host
    octet and the score are deterministic per block, mimicking how the
    ISI hitlist picks the historically most responsive address; the
    score loosely tracks the block's actual responsiveness so that
    score-ordered subsets behave like the real hitlist's.
    """
    chosen = internet.block_table()[0] if blocks is None else np.asarray(blocks, np.int64)
    rows, populated = internet.join(chosen)
    if not populated.all():
        raise DatasetError(f"block {int(chosen[~populated][0])} not in topology")
    keys = chosen.astype(np.uint64)
    # Representative host octet in [1, 254]: never .0 or .255.
    octet = 1 + (mix64_np(keys ^ np.uint64(_HOST_SALT)) % np.uint64(254)).astype(np.int64)
    noise = uniform_unit_np(internet.seed, _SCORE_SALT, keys)
    scores = np.where(internet.stable_mask()[rows], 0.55 + 0.45 * noise, 0.45 * noise)
    return Hitlist.from_columns(chosen, (chosen << 8) | octet, scores)
