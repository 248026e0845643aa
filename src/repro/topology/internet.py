"""The assembled synthetic Internet."""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.geo.geodb import GeoDatabase, join_sorted
from repro.netaddr.trie import LongestPrefixTrie
from repro.topology.asys import AutonomousSystem, PoP
from repro.topology.hosts import HostModel
from repro.topology.prefixes import AnnouncedPrefix
from repro.topology.relationships import RelationshipGraph


class Internet:
    """Container for a generated topology.

    Holds the AS graph, PoPs, announced prefixes (with a longest-prefix-
    match trie), the populated /24 blocks with their AS/PoP assignment,
    the geolocation database, and the host-responsiveness model.
    """

    def __init__(
        self,
        seed: int,
        ases: Dict[int, AutonomousSystem],
        pops: List[PoP],
        graph: RelationshipGraph,
        announced: List[AnnouncedPrefix],
        block_assignment: Dict[int, Tuple[int, int]],
        geodb: GeoDatabase,
        host_model: HostModel,
    ) -> None:
        self.seed = seed
        self.ases = ases
        self.pops = pops
        self.graph = graph
        self.announced = announced
        self.geodb = geodb
        self.host_model = host_model
        self._block_assignment = block_assignment
        self._blocks: List[int] = sorted(block_assignment)
        self._trie: LongestPrefixTrie[AnnouncedPrefix] = LongestPrefixTrie()
        for entry in announced:
            self._trie.insert(entry.prefix, entry)
        self._blocks_by_asn: Dict[int, List[int]] = {}
        for block in self._blocks:
            asn = block_assignment[block][0]
            self._blocks_by_asn.setdefault(asn, []).append(block)
        self._block_table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._block_table_pid: Optional[int] = None
        self._stable_mask: Optional[np.ndarray] = None

    # -- blocks ---------------------------------------------------------

    @property
    def blocks(self) -> Sequence[int]:
        """All populated /24 block ids, ascending."""
        return self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def has_block(self, block: int) -> bool:
        """True if ``block`` is populated in this topology."""
        return block in self._block_assignment

    def asn_of_block(self, block: int) -> int:
        """Origin AS of ``block``."""
        try:
            return self._block_assignment[block][0]
        except KeyError:
            raise TopologyError(f"block {block} is not populated") from None

    def pop_of_block(self, block: int) -> PoP:
        """The PoP serving ``block``."""
        try:
            pop_id = self._block_assignment[block][1]
        except KeyError:
            raise TopologyError(f"block {block} is not populated") from None
        return self.pops[pop_id]

    def blocks_of_asn(self, asn: int) -> List[int]:
        """All populated blocks originated by ``asn``."""
        return self._blocks_by_asn.get(asn, [])

    def block_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar ``(blocks, asns, pop_ids)`` view of the block assignment.

        Blocks ascend; the arrays align row-for-row.  Built once and
        cached — the assignment is immutable after construction — so
        vectorised consumers (the fast scan engine, bulk AS lookups)
        join against it with ``searchsorted`` instead of per-block dict
        probes.
        """
        if self._block_table is None or self._block_table_pid != os.getpid():
            count = len(self._blocks)
            blocks = np.asarray(self._blocks, dtype=np.int64)
            asns = np.fromiter(
                (self._block_assignment[block][0] for block in self._blocks),
                dtype=np.int64,
                count=count,
            )
            pop_ids = np.fromiter(
                (self._block_assignment[block][1] for block in self._blocks),
                dtype=np.int64,
                count=count,
            )
            self._block_table = (blocks, asns, pop_ids)
            self._block_table_pid = os.getpid()
        return self._block_table

    def asns_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Origin AS of each of ``blocks`` (vectorised ``asn_of_block``).

        Raises :class:`~repro.errors.TopologyError` if any block is not
        populated, mirroring the scalar lookup.
        """
        rows, populated = self.join(blocks)
        if not np.all(populated):
            missing = int(np.asarray(blocks)[~populated][0])
            raise TopologyError(f"block {missing} is not populated")
        return self.block_table()[1][rows]

    def join(self, blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of ``blocks`` in :meth:`block_table` and whether each is
        populated (rows are meaningless where it is not)."""
        return join_sorted(self.block_table()[0], blocks)

    def stable_mask(self) -> np.ndarray:
        """Which :meth:`block_table` rows host a ping responder at all.

        The host model's time-invariant draw, made once and shared
        read-only by every consumer of the responder column.
        """
        if self._stable_mask is None:
            mask = self.host_model.stable_mask(self.block_table()[0], self.geodb)
            mask.setflags(write=False)
            self._stable_mask = mask
        return self._stable_mask

    def country_of_block(self, block: int) -> Optional[str]:
        """Country code of ``block`` from the geolocation DB (or None)."""
        return self.geodb.country_of(block)

    # -- prefixes -------------------------------------------------------

    def announced_prefix_of(self, block: int) -> Optional[AnnouncedPrefix]:
        """The BGP-announced prefix covering ``block`` (LPM), or None."""
        return self._trie.lookup_value(block << 8)

    def prefixes_of_asn(self, asn: int) -> List[AnnouncedPrefix]:
        """Prefixes announced by ``asn``."""
        return [entry for entry in self.announced if entry.origin_asn == asn]

    # -- ASes -----------------------------------------------------------

    def autonomous_system(self, asn: int) -> AutonomousSystem:
        """Look up an AS by number."""
        try:
            return self.ases[asn]
        except KeyError:
            raise TopologyError(f"AS{asn} does not exist") from None

    def asns(self) -> Iterator[int]:
        """All AS numbers."""
        return iter(self.ases)

    def find_asn_by_name(self, name: str) -> int:
        """Return the ASN whose name is ``name`` (exact match)."""
        for asn, asys in self.ases.items():
            if asys.name == name:
                return asn
        raise TopologyError(f"no AS named {name!r}")

    def pops_of_asn(self, asn: int) -> List[PoP]:
        """PoP objects of ``asn``."""
        return [self.pops[pop_id] for pop_id in self.autonomous_system(asn).pop_ids]

    def summary(self) -> Dict[str, int]:
        """Headline sizes: AS / PoP / prefix / block counts."""
        return {
            "ases": len(self.ases),
            "pops": len(self.pops),
            "announced_prefixes": len(self.announced),
            "blocks": len(self._blocks),
        }
