"""The assembled synthetic Internet."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.geo.geodb import GeoDatabase, join_sorted
from repro.topology.asys import AutonomousSystem, PoP
from repro.topology.hosts import HostModel, HostModelConfig
from repro.topology.prefixes import AnnouncedPrefix
from repro.topology.relationships import RelationshipGraph


class Internet:
    """Container for a generated topology.

    Holds the AS graph, PoPs, announced prefixes (each given its run of
    populated blocks here), the populated /24 blocks as read-only
    ``(blocks, asns, pop_ids)`` columns (blocks ascending), the
    geolocation database, and the ``host_config`` its :attr:`host_model`
    draws with, over the Internet's own seed.  Lookups join against those
    columns (:meth:`join`).
    """

    def __init__(
        self,
        seed: int,
        ases: Dict[int, AutonomousSystem],
        pops: List[PoP],
        graph: RelationshipGraph,
        announced: List[AnnouncedPrefix],
        block_table: Tuple[Sequence[int], Sequence[int], Sequence[int]],
        geodb: GeoDatabase,
        host_config: Optional[HostModelConfig] = None,
    ) -> None:
        self.seed = seed
        self.ases = ases
        self.pops = pops
        self.graph = graph
        self.announced = announced
        self.geodb = geodb
        self._host_config = host_config or HostModelConfig()
        columns = tuple(np.asarray(column, dtype=np.int64) for column in block_table)
        for column in columns:
            column.setflags(write=False)
        self._block_table: Tuple[np.ndarray, np.ndarray, np.ndarray] = columns
        bounds = [(e.prefix.network, e.prefix.broadcast, e.prefix.block_count) for e in announced]
        starts, ends, spans = np.array(bounds, dtype=np.int64).reshape(-1, 3).T
        # Each prefix's populated blocks are its run of the (read-only) block column.
        lows, highs = (np.searchsorted(columns[0], edge).tolist()
                       for edge in (starts >> 8, (starts >> 8) + spans))
        for entry, low, high in zip(announced, lows, highs):
            entry.populated = columns[0][low:high]
        # (start, end address, index) of the announced prefixes, by start,
        # after a sentinel row covering nothing.  Prefixes never overlap,
        # so the last one starting at or before an address is the only
        # one that can cover it.
        order = np.lexsort((ends, starts))
        table = np.stack([starts[order], ends[order], order])
        self._prefix_table = np.concatenate([np.full((3, 1), -1), table], axis=1)
        self._stable_mask: Optional[np.ndarray] = None

    # -- blocks ---------------------------------------------------------

    @property
    def blocks(self) -> Sequence[int]:
        """All populated /24 block ids, ascending: a read-only view of the
        block column whose items are plain ints (the scalar hashes in
        :mod:`repro.rng` overflow on numpy integers)."""
        return memoryview(self._block_table[0])

    def __len__(self) -> int:
        return int(self._block_table[0].size)

    def block_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only ``(blocks, asns, pop_ids)`` columns.

        Blocks ascend; the arrays align row-for-row.  Vectorised
        consumers (the fast scan engine, bulk AS lookups) join against
        them with ``searchsorted``.
        """
        return self._block_table

    def asns_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Origin AS of each of ``blocks``.

        Raises :class:`~repro.errors.TopologyError` if any block is not
        populated.
        """
        rows, populated = self.join(blocks)
        if not np.all(populated):
            missing = int(np.asarray(blocks)[~populated][0])
            raise TopologyError(f"block {missing} is not populated")
        return self._block_table[1][rows]

    def join(self, blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of ``blocks`` in :meth:`block_table` and whether each is
        populated (rows are meaningless where it is not)."""
        return join_sorted(self._block_table[0], blocks)

    @property
    def host_model(self) -> HostModel:
        """The host-responsiveness model, drawing from this Internet's seed
        (a view over it: the model keeps no seed, and the Internet no model)."""
        return HostModel(self, self._host_config)

    def stable_mask(self) -> np.ndarray:
        """Which :meth:`block_table` rows host a ping responder at all.

        The host model's time-invariant draw, made once and shared
        read-only by every consumer of the responder column.
        """
        if self._stable_mask is None:
            mask = self.host_model.stable_mask(self._block_table[0], self.geodb)
            mask.setflags(write=False)
            self._stable_mask = mask
        return self._stable_mask

    # -- prefixes -------------------------------------------------------

    def announced_index_of(self, blocks: np.ndarray) -> np.ndarray:
        """Index into :attr:`announced` of the prefix covering each of
        ``blocks``, ``-1`` where none does."""
        starts, ends, index = self._prefix_table
        addresses = np.asarray(blocks, dtype=np.int64) << 8
        row = np.searchsorted(starts, addresses, side="right") - 1
        return np.where(addresses <= ends[row], index[row], -1)

    # -- ASes -----------------------------------------------------------

    def find_asn_by_name(self, name: str) -> int:
        """Return the ASN whose name is ``name`` (exact match)."""
        for asn, asys in self.ases.items():
            if asys.name == name:
                return asn
        raise TopologyError(f"no AS named {name!r}")

    def summary(self) -> Dict[str, int]:
        """Headline sizes: AS / PoP / prefix / block counts."""
        return {
            "ases": len(self.ases),
            "pops": len(self.pops),
            "announced_prefixes": len(self.announced),
            "blocks": len(self),
        }
