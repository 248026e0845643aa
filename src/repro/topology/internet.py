"""The assembled synthetic Internet."""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.geo.geodb import GeoDatabase, join_sorted
from repro.topology.hosts import HostModel, HostModelConfig

if TYPE_CHECKING:
    from repro.topology.asys import AutonomousSystem, PoP
    from repro.topology.prefixes import AnnouncedPrefix
    from repro.topology.relationships import RelationshipGraph


class AsTable(NamedTuple):
    """One row per AS, in creation order: ``AutonomousSystem``'s fields."""

    asn: np.ndarray  # int64
    tier: Tuple[str, ...]
    name: Tuple[str, ...]
    country_code: Tuple[str, ...]
    flipper: np.ndarray  # bool


class PopTable(NamedTuple):
    """One row per PoP, its ``pop_id`` the row: ``PoP``'s fields."""

    asn: np.ndarray  # int64
    country_code: Tuple[str, ...]
    latitude: np.ndarray  # float64
    longitude: np.ndarray  # float64


def _column(values, dtype=None):
    """``values`` as a read-only C-ordered array of ``dtype`` (no copy when it
    already is one), or as a tuple when ``dtype`` is None (a text column)."""
    if dtype is None:
        return tuple(values)
    column = np.ascontiguousarray(values, dtype=dtype)
    column.setflags(write=False)
    return column


def _rows(table) -> Iterator[tuple]:
    """The rows of a column table, as plain Python values."""
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table))


class Internet:
    """A generated topology as read-only tables: an :class:`AsTable`, a
    :class:`PopTable`, the announced ``prefixes`` ``(network, length, origin)``
    and the AS ``edges`` ``(a, b, peering)`` (``a`` buys transit from ``b``
    where ``peering`` is 0; in insertion order) as ``(3, n)`` tables, the
    populated /24 blocks as ``(blocks, asns, pop_ids)`` columns (blocks
    ascending), the geolocation database, and the ``host_config`` its
    :attr:`host_model` draws with, over the Internet's own seed.

    :attr:`ases`, :attr:`pops`, :attr:`announced` and :attr:`graph` are
    object views of the tables, built on first access and cached, for the
    library and oracle paths (validation, the scalar BGP references, the
    wire walk); no operator path reads them.
    """

    def __init__(
        self,
        seed: int,
        as_table: Sequence,
        pop_table: Sequence,
        prefixes,
        edges,
        block_table: Tuple[Sequence[int], Sequence[int], Sequence[int]],
        geodb: GeoDatabase,
        host_config: Optional[HostModelConfig] = None,
    ) -> None:
        self.seed = seed
        self.as_table = AsTable(*map(_column, as_table, (np.int64, None, None, None, bool)))
        self.pop_table = PopTable(*map(_column, pop_table, (np.int64, None, np.float64,
                                                            np.float64)))
        self.prefixes = _column(prefixes, np.int64).reshape(3, -1)
        self.edges = _column(edges, np.int64).reshape(3, -1)
        self.geodb = geodb
        self._host_config = host_config or HostModelConfig()
        self._block_table: Tuple[np.ndarray, np.ndarray, np.ndarray] = tuple(
            _column(column, np.int64) for column in block_table)
        starts, lengths, _ = self.prefixes
        ends = starts | ((1 << (32 - lengths)) - 1)
        first = starts >> 8
        spans = np.where(lengths <= 24, 1 << np.clip(24 - lengths, 0, 24), 0)
        # Each prefix's populated blocks are its run of the (read-only) block column.
        self._runs = np.searchsorted(self._block_table[0], np.stack([first, first + spans]))
        # (start, end address, index) of the announced prefixes, by start,
        # after a sentinel row covering nothing.  Prefixes never overlap,
        # so the last one starting at or before an address is the only
        # one that can cover it.
        order = np.lexsort((ends, starts))
        table = np.stack([starts[order], ends[order], order])
        self._prefix_table = np.concatenate([np.full((3, 1), -1), table], axis=1)
        self._stable_mask: Optional[np.ndarray] = None

    # -- object views (library and oracle paths) --------------------------

    @cached_property
    def ases(self) -> Dict[int, "AutonomousSystem"]:
        """ASN -> ``AutonomousSystem``, in :attr:`as_table` order."""
        from repro.topology.asys import AutonomousSystem

        pop_ids: Dict[int, List[int]] = {}
        for pop_id, asn in enumerate(self.pop_table.asn.tolist()):
            pop_ids.setdefault(asn, []).append(pop_id)
        return {asn: AutonomousSystem(asn, tier, name, country, pop_ids.get(asn, []), flipper)
                for asn, tier, name, country, flipper in _rows(self.as_table)}

    @cached_property
    def pops(self) -> List["PoP"]:
        """Every ``PoP``, indexed by its ``pop_id``."""
        from repro.topology.asys import PoP

        return [PoP(pop_id, *row) for pop_id, row in enumerate(_rows(self.pop_table))]

    @cached_property
    def announced(self) -> List["AnnouncedPrefix"]:
        """Every ``AnnouncedPrefix``, its ``populated`` run a view of the block column."""
        from repro.netaddr.prefix import Prefix
        from repro.topology.prefixes import AnnouncedPrefix

        blocks = self._block_table[0]
        return [AnnouncedPrefix(Prefix(network, length), origin, blocks[low:high])
                for (network, length, origin), low, high
                in zip(self.prefixes.T.tolist(), *self._runs.tolist())]

    @cached_property
    def graph(self) -> "RelationshipGraph":
        """The edges as a ``RelationshipGraph``, added in their order."""
        from repro.topology.relationships import RelationshipGraph

        graph = RelationshipGraph()
        for a, b, peering in zip(*self.edges.tolist()):
            (graph.add_peering if peering else graph.add_customer_provider)(a, b)
        return graph

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
        """Column of :attr:`prefixes` (item of :attr:`announced`) covering each
        of ``blocks``, ``-1`` where none does."""
        starts, ends, index = self._prefix_table
        addresses = np.asarray(blocks, dtype=np.int64) << 8
        row = np.searchsorted(starts, addresses, side="right") - 1
        return np.where(addresses <= ends[row], index[row], -1)

    # -- ASes -----------------------------------------------------------

    def as_row(self, asn: int) -> int:
        """Row of ``asn`` in :attr:`as_table`; raises ``TopologyError`` if none."""
        rows = np.flatnonzero(self.as_table.asn == asn)
        if not rows.size:
            raise TopologyError(f"no AS{asn}")
        return int(rows[0])

    def find_asn_by_name(self, name: str) -> int:
        """Return the ASN whose name is ``name`` (exact match)."""
        if name not in self.as_table.name:
            raise TopologyError(f"no AS named {name!r}")
        return int(self.as_table.asn[self.as_table.name.index(name)])

    def summary(self) -> Dict[str, int]:
        """Headline sizes: AS / PoP / prefix / block counts."""
        return {
            "ases": len(self.as_table.asn),
            "pops": len(self.pop_table.asn),
            "announced_prefixes": self.prefixes.shape[1],
            "blocks": len(self),
        }
