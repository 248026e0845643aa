"""IPv4 hitlists: one representative address per /24 block.

Stands in for the ISI IPv4 hitlist the paper uses [17]: for every /24
block, the address historically most likely to respond to pings, with a
score.  Probing one address per block reduces traffic to 0.4% of a full
scan (paper §3.1) at the cost of missing blocks whose representative
happens to be down.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.rng import mix64_np, uniform_unit_np
from repro.topology.internet import Internet

_SCORE_SALT = 0x53434F52
_HOST_SALT = 0x484F5354


class Hitlist:
    """Hitlist rows in block order, held as three read-only columns.

    ``blocks`` / ``addresses`` (int64) and ``scores`` (float64) align
    row for row; the constructor takes them in any row order and
    rejects duplicate blocks.
    """

    def __init__(self, blocks: np.ndarray, addresses: np.ndarray, scores: np.ndarray) -> None:
        order = np.argsort(blocks, kind="stable")
        self.blocks, self.addresses, self.scores = blocks[order], addresses[order], scores[order]
        if np.any(np.diff(self.blocks) == 0):
            raise DatasetError("hitlist has duplicate blocks")
        for column in (self.blocks, self.addresses, self.scores):
            column.setflags(write=False)

    def __len__(self) -> int:
        return self.blocks.size


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
    return Hitlist(chosen, (chosen << 8) | octet, scores)
