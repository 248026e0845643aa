"""Catchment maps: which /24 block is served by which site.

Two interchangeable representations live here:

- :class:`CatchmentMap` — the dict-backed reference implementation,
  one ``{block: site}`` entry per mapped block.  Simple, obviously
  correct, and the behavioural contract for the columnar path.
- :class:`ArrayCatchmentMap` — the columnar implementation: a shared
  sorted ``uint64`` *block universe* plus one ``int16`` site index per
  universe block (``-1`` = unmapped).  All public methods are
  vectorised (``bincount``/``searchsorted``/boolean masks) and
  bit-equal to the reference, including ``diff``'s sorted
  ``flipped_blocks``.  Rounds of one measurement series share the same
  universe array, which makes per-round diffs pure array comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError

UNKNOWN_SITE = "UNK"

_UINT64_MAX = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class CatchmentDiff:
    """Differences between two catchment maps over a common site set."""

    stable: int
    flipped: int
    appeared: int
    disappeared: int
    flipped_blocks: Tuple[int, ...]


class CatchmentMap:
    """Immutable-ish mapping of /24 block -> anycast site code."""

    def __init__(self, site_codes: Iterable[str], mapping: Mapping[int, str]) -> None:
        self._site_codes: List[str] = list(site_codes)
        self._mapping: Dict[int, str] = dict(mapping)

    @property
    def site_codes(self) -> List[str]:
        """All site codes this map may reference."""
        return list(self._site_codes)

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, block: int) -> bool:
        return block in self._mapping

    def site_of(self, block: int) -> Optional[str]:
        """Site serving ``block``, or None when unmapped."""
        return self._mapping.get(block)

    def blocks(self) -> Iterator[int]:
        """All mapped blocks."""
        return iter(self._mapping)

    def items(self) -> Iterator[Tuple[int, str]]:
        """All ``(block, site)`` pairs."""
        return iter(self._mapping.items())

    def blocks_of_site(self, site_code: str) -> List[int]:
        """Blocks in the catchment of ``site_code``."""
        return [block for block, site in self._mapping.items() if site == site_code]

    def counts(self) -> Dict[str, int]:
        """Blocks per site (sites with zero blocks included)."""
        counts = {code: 0 for code in self._site_codes}
        for site in self._mapping.values():
            counts[site] = counts.get(site, 0) + 1
        return counts

    def fractions(self) -> Dict[str, float]:
        """Share of mapped blocks per site."""
        total = len(self._mapping)
        if total == 0:
            return {code: 0.0 for code in self._site_codes}
        return {code: count / total for code, count in self.counts().items()}

    def fraction_of(self, site_code: str) -> float:
        """Share of mapped blocks served by ``site_code``."""
        return self.fractions().get(site_code, 0.0)

    def restrict(self, blocks: Iterable[int]) -> "CatchmentMap":
        """A new map containing only ``blocks`` (those that are mapped)."""
        keep = set(blocks)
        return CatchmentMap(
            self._site_codes,
            {block: site for block, site in self._mapping.items() if block in keep},
        )

    def diff(self, later: "CatchmentMap") -> CatchmentDiff:
        """Compare with a ``later`` map: stable/flipped/appeared/disappeared.

        Matches the paper's Figure 9 categories: *flipped* blocks are
        mapped in both rounds but to different sites; *appeared*
        (from-NR) are only in the later round; *disappeared* (to-NR)
        only in the earlier.
        """
        stable = 0
        flipped: List[int] = []
        earlier_blocks: Set[int] = set(self._mapping)
        later_blocks: Set[int] = set(later._mapping)
        for block in sorted(earlier_blocks & later_blocks):
            if self._mapping[block] == later._mapping[block]:
                stable += 1
            else:
                flipped.append(block)
        return CatchmentDiff(
            stable=stable,
            flipped=len(flipped),
            appeared=len(later_blocks - earlier_blocks),
            disappeared=len(earlier_blocks - later_blocks),
            flipped_blocks=tuple(flipped),
        )


class ArrayCatchmentMap(CatchmentMap):
    """Columnar catchment map over a shared, sorted block universe.

    ``universe`` is a strictly-ascending ``uint64`` array of candidate
    blocks; ``sites`` holds one ``int16`` index into ``site_codes`` per
    universe entry, ``-1`` for unmapped.  A *mapped* block is one with
    a non-negative site index.  The universe array is shared (not
    copied) between the rounds of a series, so equal-universe diffs
    reduce to element-wise comparisons.
    """

    def __init__(
        self,
        site_codes: Iterable[str],
        universe: np.ndarray,
        sites: np.ndarray,
        validate: bool = True,
    ) -> None:
        self._site_codes = list(site_codes)
        universe = np.asarray(universe, dtype=np.uint64)
        sites = np.asarray(sites, dtype=np.int16)
        if validate:
            if universe.shape != sites.shape or universe.ndim != 1:
                raise ConfigurationError(
                    "universe and sites must be 1-D arrays of equal length"
                )
            if universe.size > 1 and not (np.diff(universe.astype(np.int64)) > 0).all():
                raise ConfigurationError("block universe must be strictly ascending")
            if sites.size and int(sites.max()) >= len(self._site_codes):
                raise ConfigurationError("site index out of range for site_codes")
        self._universe = universe
        self._sites = sites
        self._mapping_cache: Optional[Dict[int, str]] = None
        self._mapped_count: Optional[int] = None

    def __getstate__(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """Pickle only the columns, never the lazy dict caches.

        Shard workers ship catchments across process boundaries; the
        caches are derived data that would bloat the payload (and a
        fully-materialised dict cache dwarfs the arrays themselves).
        """
        return (self._site_codes, self._universe, self._sites)

    def __setstate__(
        self, state: Tuple[List[str], np.ndarray, np.ndarray]
    ) -> None:
        """Restore columns with cold caches (rebuilt lazily on demand)."""
        self._site_codes, self._universe, self._sites = state
        self._mapping_cache = None
        self._mapped_count = None

    @classmethod
    def from_mapping(
        cls, site_codes: Iterable[str], mapping: Mapping[int, str]
    ) -> "ArrayCatchmentMap":
        """Build a columnar map from a plain ``{block: site}`` mapping."""
        codes = list(site_codes)
        index = {code: i for i, code in enumerate(codes)}
        blocks = sorted(mapping)
        sites = np.empty(len(blocks), dtype=np.int16)
        for row, block in enumerate(blocks):
            site = mapping[block]
            if site not in index:
                raise ConfigurationError(
                    f"site {site!r} of block {block} is not in site_codes"
                )
            sites[row] = index[site]
        return cls(
            codes, np.asarray(blocks, dtype=np.uint64), sites, validate=False
        )

    # -- columnar accessors ------------------------------------------------

    @property
    def universe(self) -> np.ndarray:
        """The shared sorted block universe (do not mutate)."""
        return self._universe

    @property
    def site_index_array(self) -> np.ndarray:
        """Per-universe-block site indices, ``-1`` = unmapped (do not mutate)."""
        return self._sites

    def mapped_block_array(self) -> np.ndarray:
        """Mapped blocks as an ascending ``int64`` array."""
        return self._universe[self._sites >= 0].astype(np.int64)

    def index_of_site(self, site_code: str) -> Optional[int]:
        """Index of ``site_code`` in :attr:`site_codes`, or None."""
        try:
            return self._site_codes.index(site_code)
        except ValueError:
            return None

    def join(self, blocks: np.ndarray) -> np.ndarray:
        """Universe row of each of ``blocks`` (``-1`` = absent).

        Depends only on the universe, so maps sharing one universe can
        share one join (:meth:`site_indices_at`).
        """
        blocks = np.asarray(blocks)
        if self._universe.size == 0 or blocks.size == 0:
            return np.full(blocks.shape, -1, dtype=np.intp)
        keys = blocks.astype(np.uint64)
        pos = np.searchsorted(self._universe, keys)
        pos = np.minimum(pos, self._universe.size - 1)
        return np.where(self._universe[pos] == keys, pos, -1)

    def site_indices_at(self, rows: np.ndarray) -> np.ndarray:
        """Site index at each of ``rows`` from :meth:`join` (``-1`` =
        absent or unmapped); the appended ``-1`` is where row ``-1`` lands."""
        return np.append(self._sites, np.int16(-1))[rows]

    def site_indices_of(self, blocks: np.ndarray) -> np.ndarray:
        """Site index for each of ``blocks`` (``-1`` = absent or unmapped)."""
        return self.site_indices_at(self.join(blocks))

    # -- dict-API equivalents ----------------------------------------------

    @property
    def _mapping(self) -> Dict[int, str]:  # cross-representation interop
        if self._mapping_cache is None:
            self._mapping_cache = {
                int(block): self._site_codes[site]
                for block, site in zip(
                    self._universe[self._sites >= 0], self._sites[self._sites >= 0]
                )
            }
        return self._mapping_cache

    def __len__(self) -> int:
        if self._mapped_count is None:
            self._mapped_count = int(np.count_nonzero(self._sites >= 0))
        return self._mapped_count

    def __contains__(self, block: int) -> bool:
        return self._index_of_block(block) is not None

    def _index_of_block(self, block: int) -> Optional[int]:
        """Universe row of a *mapped* ``block``, or None."""
        if not 0 <= block <= _UINT64_MAX or self._universe.size == 0:
            return None
        pos = int(np.searchsorted(self._universe, np.uint64(block)))
        if pos >= self._universe.size or int(self._universe[pos]) != block:
            return None
        return pos if self._sites[pos] >= 0 else None

    def site_of(self, block: int) -> Optional[str]:
        """Site serving ``block``, or None when unmapped."""
        pos = self._index_of_block(block)
        return self._site_codes[self._sites[pos]] if pos is not None else None

    def blocks(self) -> Iterator[int]:
        """All mapped blocks, ascending."""
        return (int(block) for block in self._universe[self._sites >= 0])

    def items(self) -> Iterator[Tuple[int, str]]:
        """All ``(block, site)`` pairs, ascending by block."""
        mask = self._sites >= 0
        return (
            (int(block), self._site_codes[site])
            for block, site in zip(self._universe[mask], self._sites[mask])
        )

    def blocks_of_site(self, site_code: str) -> List[int]:
        """Blocks in the catchment of ``site_code``, ascending."""
        index = self.index_of_site(site_code)
        if index is None:
            return []
        return [int(block) for block in self._universe[self._sites == index]]

    def counts(self) -> Dict[str, int]:
        """Blocks per site (sites with zero blocks included)."""
        mapped = self._sites[self._sites >= 0]
        tally = np.bincount(mapped, minlength=len(self._site_codes))
        return {code: int(tally[i]) for i, code in enumerate(self._site_codes)}

    def fractions(self) -> Dict[str, float]:
        """Share of mapped blocks per site."""
        total = len(self)
        if total == 0:
            return {code: 0.0 for code in self._site_codes}
        return {code: count / total for code, count in self.counts().items()}

    def fraction_of(self, site_code: str) -> float:
        """Share of mapped blocks served by ``site_code``."""
        total = len(self)
        index = self.index_of_site(site_code)
        if total == 0 or index is None:
            return 0.0
        return int(np.count_nonzero(self._sites == index)) / total

    def restrict(self, blocks: Iterable[int]) -> "ArrayCatchmentMap":
        """A new map keeping only ``blocks``; the universe stays shared."""
        if isinstance(blocks, np.ndarray):
            keep = np.unique(blocks.astype(np.uint64))
        else:
            valid = [block for block in blocks if 0 <= block <= _UINT64_MAX]
            keep = np.unique(np.asarray(valid, dtype=np.uint64))
        member = np.isin(self._universe, keep, assume_unique=True)
        return ArrayCatchmentMap(
            self._site_codes,
            self._universe,
            np.where(member, self._sites, np.int16(-1)),
            validate=False,
        )

    def diff(self, later: "CatchmentMap") -> CatchmentDiff:
        """Vectorised diff; bit-equal to the dict reference.

        Equal universes (the series case: the exact same array object,
        or equal contents) compare element-wise; different universes
        join on the sorted block arrays; anything else — a dict-backed
        ``later``, differing site vocabularies — falls back to the
        reference implementation.
        """
        if (
            not isinstance(later, ArrayCatchmentMap)
            or self._site_codes != later._site_codes
        ):
            return super().diff(later)
        a_sites, b_sites = self._sites, later._sites
        if self._universe is later._universe or (
            self._universe.shape == later._universe.shape
            and np.array_equal(self._universe, later._universe)
        ):
            a_mapped = a_sites >= 0
            b_mapped = b_sites >= 0
            both = a_mapped & b_mapped
            flipped_blocks = self._universe[both & (a_sites != b_sites)]
            stable = int(np.count_nonzero(both & (a_sites == b_sites)))
        else:
            _, rows_a, rows_b = np.intersect1d(
                self._universe,
                later._universe,
                assume_unique=True,
                return_indices=True,
            )
            sa, sb = a_sites[rows_a], b_sites[rows_b]
            both = (sa >= 0) & (sb >= 0)
            flipped_blocks = self._universe[rows_a[both & (sa != sb)]]
            stable = int(np.count_nonzero(both & (sa == sb)))
        flipped = int(flipped_blocks.size)
        return CatchmentDiff(
            stable=stable,
            flipped=flipped,
            appeared=len(later) - stable - flipped,
            disappeared=len(self) - stable - flipped,
            flipped_blocks=tuple(int(block) for block in np.sort(flipped_blocks)),
        )


class CatchmentAccumulator:
    """Mutable current-catchment state over a shared block universe.

    The always-on mapping service folds a stream of measurement rounds
    into one *current* catchment: every round remaps the blocks it
    heard from and leaves the rest at their last-known site.  This
    accumulator holds that state as a single ``int16`` site-index
    column over the immutable universe and updates it **in place**,
    block by block — no per-round rebuild of the map, no dict
    materialisation.

    Folding rounds through :meth:`apply_catchment` (or their kept
    replies through :meth:`apply_blocks`, batch by batch, in stream
    order) is bit-identical to a batch recompute that merges the same
    rounds' ``{block: site}`` mappings in round order — asserted by
    the equivalence tests in ``tests/test_service.py``.
    """

    def __init__(self, site_codes: Sequence[str], universe: np.ndarray) -> None:
        self._site_codes = list(site_codes)
        universe = np.asarray(universe, dtype=np.uint64)
        if universe.ndim != 1:
            raise ConfigurationError("block universe must be a 1-D array")
        if universe.size > 1 and not (np.diff(universe.astype(np.int64)) > 0).all():
            raise ConfigurationError("block universe must be strictly ascending")
        self._universe = universe
        self._sites = np.full(universe.size, -1, dtype=np.int16)
        self._generation = 0

    @property
    def site_codes(self) -> List[str]:
        """Site codes the accumulated indices refer to."""
        return list(self._site_codes)

    @property
    def universe(self) -> np.ndarray:
        """The shared sorted block universe (do not mutate)."""
        return self._universe

    @property
    def generation(self) -> int:
        """Number of updates applied so far (monotonic)."""
        return self._generation

    def __len__(self) -> int:
        return int(np.count_nonzero(self._sites >= 0))

    def apply_blocks(self, blocks: np.ndarray, site_indices: np.ndarray) -> int:
        """Remap ``blocks`` to ``site_indices`` in place; returns rows changed.

        Duplicate blocks within one call resolve last-write-wins, the
        same way a dict merge of the batch would.  Blocks outside the
        universe raise — the stream and the state must share one block
        vocabulary.
        """
        blocks = np.asarray(blocks, dtype=np.uint64)
        site_indices = np.asarray(site_indices, dtype=np.int16)
        if blocks.shape != site_indices.shape or blocks.ndim != 1:
            raise ConfigurationError(
                "blocks and site_indices must be 1-D arrays of equal length"
            )
        if blocks.size == 0:
            return 0
        if site_indices.size and int(site_indices.max()) >= len(self._site_codes):
            raise ConfigurationError("site index out of range for site_codes")
        positions = np.searchsorted(self._universe, blocks)
        positions = np.minimum(positions, max(self._universe.size - 1, 0))
        if self._universe.size == 0 or not (
            self._universe[positions] == blocks
        ).all():
            raise ConfigurationError("block outside the accumulator's universe")
        # Last write wins on duplicate blocks: np.unique on the reversed
        # array keeps each block's *last* original occurrence.
        reversed_blocks = blocks[::-1]
        _, first_in_reversed = np.unique(reversed_blocks, return_index=True)
        keep = blocks.size - 1 - first_in_reversed  # ascending block order
        positions = positions[keep]
        updates = site_indices[keep]
        changed = int(np.count_nonzero(self._sites[positions] != updates))
        self._sites[positions] = updates
        self._generation += 1
        return changed

    def apply_catchment(self, round_map: ArrayCatchmentMap) -> int:
        """Fold one round's map in: its mapped rows overwrite, the rest keep.

        Requires the round to share this accumulator's universe (the
        same array object or equal contents), which is how the fast
        engine materialises every round of a series — the update is
        then a single masked scatter, no join.
        """
        if round_map.site_codes != self._site_codes:
            raise ConfigurationError(
                "round map's site codes differ from the accumulator's"
            )
        other = round_map.universe
        if other is not self._universe and not (
            other.shape == self._universe.shape
            and np.array_equal(other, self._universe)
        ):
            raise ConfigurationError(
                "round map's universe differs from the accumulator's"
            )
        incoming = round_map.site_index_array
        mapped = incoming >= 0
        changed = int(np.count_nonzero(self._sites[mapped] != incoming[mapped]))
        self._sites[mapped] = incoming[mapped]
        self._generation += 1
        return changed

    def site_index_of(self, block: int) -> int:
        """Current site index of ``block`` (-1 = unmapped or unknown)."""
        if not 0 <= block <= _UINT64_MAX or self._universe.size == 0:
            return -1
        pos = int(np.searchsorted(self._universe, np.uint64(block)))
        if pos >= self._universe.size or int(self._universe[pos]) != block:
            return -1
        return int(self._sites[pos])

    def snapshot(self) -> ArrayCatchmentMap:
        """An immutable copy of the current state (universe stays shared)."""
        return ArrayCatchmentMap(
            self._site_codes,
            self._universe,
            self._sites.copy(),
            validate=False,
        )

