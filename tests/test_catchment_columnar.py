"""Array-backed catchment maps must be bit-equal to the dict reference.

Every public method is exercised against :class:`CatchmentMap` on the
same data — seeded random mappings, scan output, and hand-picked edge
cases — plus the columnar-only extras (``site_indices_of``, shared
universes, ``BlockValueMap``) and the columnar ``weight_catchment``
path, which must produce float-identical :class:`SiteLoad` results.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.anycast.catchment import ArrayCatchmentMap, CatchmentMap
from repro.collector.results import BlockValueMap
from repro.errors import BlockLookupError, ConfigurationError, DatasetError
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN, weight_catchment
from repro.traffic.logs import LoadKind

SITES = ["LAX", "MIA", "ARI"]


def random_mapping(seed: int, size: int, span: int = 5000) -> dict:
    rng = random.Random(seed)
    blocks = rng.sample(range(span), size)
    return {block: rng.choice(SITES) for block in blocks}


def pair_for(seed: int, size: int = 120):
    mapping = random_mapping(seed, size)
    return (
        CatchmentMap(SITES, mapping),
        ArrayCatchmentMap.from_mapping(SITES, mapping),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
class TestMethodEquivalence:
    def test_len_contains_site_of(self, seed):
        reference, columnar = pair_for(seed)
        assert len(columnar) == len(reference)
        probes = list(reference.blocks())[:20] + [-1, 10**9, 2**64 + 5]
        for block in probes:
            assert (block in columnar) == (block in reference)
            assert columnar.site_of(block) == reference.site_of(block)

    def test_blocks_items_are_sorted_dict_contents(self, seed):
        reference, columnar = pair_for(seed)
        assert list(columnar.blocks()) == sorted(reference.blocks())
        assert dict(columnar.items()) == dict(reference.items())

    def test_blocks_of_site_counts_fractions(self, seed):
        reference, columnar = pair_for(seed)
        for code in (*SITES, "NOPE"):
            assert columnar.blocks_of_site(code) == sorted(
                reference.blocks_of_site(code)
            )
            assert columnar.fraction_of(code) == reference.fraction_of(code)
        assert columnar.counts() == reference.counts()
        assert columnar.fractions() == reference.fractions()

    def test_restrict_round_trip(self, seed):
        reference, columnar = pair_for(seed)
        rng = random.Random(seed + 1000)
        keep = rng.sample(sorted(reference.blocks()), len(reference) // 2)
        keep += [999_999_999]  # absent blocks are ignored by both
        restricted_ref = reference.restrict(keep)
        restricted_col = columnar.restrict(keep)
        assert dict(restricted_col.items()) == dict(restricted_ref.items())
        # The universe is shared, not copied, and a full restrict round-trips.
        assert restricted_col.universe is columnar.universe
        full = columnar.restrict(list(columnar.blocks()))
        assert dict(full.items()) == dict(columnar.items())

    def test_diff_matches_reference_exactly(self, seed):
        ref_a, col_a = pair_for(seed)
        later_mapping = random_mapping(seed + 500, 110)
        ref_b = CatchmentMap(SITES, later_mapping)
        col_b = ArrayCatchmentMap.from_mapping(SITES, later_mapping)
        expected = ref_a.diff(ref_b)
        for earlier, later in [
            (col_a, col_b),  # array/array (different universes)
            (col_a, ref_b),  # array/dict fallback
            (ref_a, col_b),  # dict/array via the lazy mapping
        ]:
            diff = earlier.diff(later)
            assert diff == expected
            assert diff.flipped_blocks == tuple(sorted(diff.flipped_blocks))

    def test_diff_on_shared_universe(self, seed):
        """The series case: same universe object, sites flip per round."""
        mapping = random_mapping(seed, 150)
        base = ArrayCatchmentMap.from_mapping(SITES, mapping)
        rng = random.Random(seed + 2000)
        sites = base.site_index_array.copy()
        for row in range(sites.size):
            roll = rng.random()
            if roll < 0.2:
                sites[row] = -1
            elif roll < 0.5:
                sites[row] = rng.randrange(len(SITES))
        later = ArrayCatchmentMap(SITES, base.universe, sites, validate=False)
        assert later.universe is base.universe
        expected = CatchmentMap(SITES, dict(base.items())).diff(
            CatchmentMap(SITES, dict(later.items()))
        )
        assert base.diff(later) == expected


class TestConstructionAndValidation:
    def test_from_mapping_rejects_unknown_site(self):
        with pytest.raises(ConfigurationError):
            ArrayCatchmentMap.from_mapping(["LAX"], {1: "MIA"})

    def test_validate_rejects_malformed_arrays(self):
        with pytest.raises(ConfigurationError):
            ArrayCatchmentMap(SITES, np.array([1, 2]), np.array([0], dtype=np.int16))
        with pytest.raises(ConfigurationError):
            ArrayCatchmentMap(
                SITES,
                np.array([5, 3], dtype=np.uint64),
                np.array([0, 0], dtype=np.int16),
            )
        with pytest.raises(ConfigurationError):
            ArrayCatchmentMap(
                SITES,
                np.array([1, 2], dtype=np.uint64),
                np.array([0, len(SITES)], dtype=np.int16),
            )

    def test_empty_maps_agree(self):
        reference = CatchmentMap(SITES, {})
        columnar = ArrayCatchmentMap.from_mapping(SITES, {})
        assert len(columnar) == 0
        assert columnar.counts() == reference.counts()
        assert columnar.fractions() == reference.fractions()
        assert columnar.diff(columnar) == reference.diff(reference)
        assert columnar.site_of(3) is None

    def test_unmapped_universe_entries_are_invisible(self):
        universe = np.array([1, 2, 3, 4], dtype=np.uint64)
        sites = np.array([0, -1, 1, -1], dtype=np.int16)
        columnar = ArrayCatchmentMap(SITES, universe, sites)
        assert len(columnar) == 2
        assert 2 not in columnar
        assert columnar.site_of(2) is None
        assert list(columnar.blocks()) == [1, 3]
        assert columnar.mapped_block_array().tolist() == [1, 3]


class TestSiteIndicesOf:
    def test_join_semantics(self):
        columnar = ArrayCatchmentMap(
            SITES,
            np.array([10, 20, 30], dtype=np.uint64),
            np.array([0, -1, 2], dtype=np.int16),
        )
        queries = np.array([5, 10, 20, 25, 30, 40], dtype=np.int64)
        indices = columnar.site_indices_of(queries)
        assert indices.dtype == np.int16
        assert indices.tolist() == [-1, 0, -1, -1, 2, -1]

    def test_empty_inputs(self):
        columnar = ArrayCatchmentMap.from_mapping(SITES, {})
        assert columnar.site_indices_of(np.array([1, 2])).tolist() == [-1, -1]
        full = ArrayCatchmentMap.from_mapping(SITES, {7: "LAX"})
        assert full.site_indices_of(np.array([], dtype=np.int64)).size == 0


class TestBlockValueMap:
    def test_mapping_protocol(self):
        bvm = BlockValueMap(
            np.array([3, 9, 12], dtype=np.int64),
            np.array([1.5, 2.5, 3.5]),
        )
        as_dict = {3: 1.5, 9: 2.5, 12: 3.5}
        assert dict(bvm.items()) == as_dict
        assert bvm == as_dict  # Mapping.__eq__
        assert len(bvm) == 3
        assert list(bvm) == [3, 9, 12]
        assert 9 in bvm and 4 not in bvm
        assert bvm[12] == 3.5
        assert bvm.get(4) is None
        assert np.int64(9) in bvm  # numpy integer keys behave like ints
        assert 9.0 in bvm and 9.5 not in bvm  # dict float-key semantics
        with pytest.raises(KeyError):
            bvm[4]
        with pytest.raises(BlockLookupError):
            bvm[4]

    def test_validation(self):
        with pytest.raises(DatasetError):
            BlockValueMap(np.array([2, 1]), np.array([0.0, 1.0]))
        with pytest.raises(DatasetError):
            BlockValueMap(np.array([1, 2]), np.array([0.0]))

    def test_empty(self):
        bvm = BlockValueMap(np.array([], dtype=np.int64), np.array([]))
        assert len(bvm) == 0
        assert not bvm  # Mapping truthiness via __len__
        assert 5 not in bvm


class TestWeightCatchmentEquivalence:
    @pytest.fixture(scope="class")
    def estimate(self, broot_tiny):
        return LoadEstimate(broot_tiny.day_load("2017-04-12"))

    @pytest.fixture(scope="class")
    def catchments(self, broot_scan):
        reference = broot_scan.catchment
        if isinstance(reference, ArrayCatchmentMap):
            reference = CatchmentMap(
                reference.site_codes, dict(reference.items())
            )
        columnar = ArrayCatchmentMap.from_mapping(
            reference.site_codes, dict(reference.items())
        )
        return reference, columnar

    @pytest.mark.parametrize("kind", sorted(LoadKind.ALL))
    @pytest.mark.parametrize("hourly", [True, False])
    def test_bit_identical_site_load(self, catchments, broot_tiny, kind, hourly):
        reference_map, columnar_map = catchments
        estimate = LoadEstimate(broot_tiny.day_load("2017-04-12"), kind=kind)
        expected = weight_catchment(reference_map, estimate, hourly=hourly)
        actual = weight_catchment(columnar_map, estimate, hourly=hourly)
        for code in (*reference_map.site_codes, UNKNOWN):
            assert actual.daily_of(code) == expected.daily_of(code)
            assert np.array_equal(actual.hourly_of(code), expected.hourly_of(code))
        assert actual.fractions() == expected.fractions()
        assert actual.unknown_fraction() == expected.unknown_fraction()

    def test_fractions_match_fraction_of(self, catchments, estimate):
        _, columnar_map = catchments
        load = weight_catchment(columnar_map, estimate)
        for include_unknown in (False, True):
            shares = load.fractions(include_unknown=include_unknown)
            for code in load.site_codes:
                assert shares[code] == load.fraction_of(code, include_unknown)
            # The shares partition the normalising total: they must sum
            # to 1.0 whichever way the total was taken.
            assert sum(shares.values()) == pytest.approx(1.0)
            if include_unknown:
                assert UNKNOWN in shares
                assert shares[UNKNOWN] == load.unknown_fraction()
            else:
                assert UNKNOWN not in shares

    def test_hourly_of_returns_read_only_views(self, catchments, estimate):
        _, columnar_map = catchments
        load = weight_catchment(columnar_map, estimate)
        present = load.site_codes[0]
        for code in (present, UNKNOWN, "NO-SUCH-SITE"):
            vector = load.hourly_of(code)
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[0] = 123.0
        # The refused write must not have leaked into internal state.
        assert np.array_equal(load.hourly_of(present), load.hourly_of(present))

    def test_hourly_matrix_matches_scalar_rows(self, broot_tiny):
        for kind in sorted(LoadKind.ALL):
            estimate = LoadEstimate(broot_tiny.day_load("2017-04-12"), kind=kind)
            matrix = estimate.hourly_matrix()
            for row, block in enumerate(estimate.blocks[:50]):
                assert np.array_equal(
                    matrix[row], estimate.hourly_of_block(int(block))
                )
