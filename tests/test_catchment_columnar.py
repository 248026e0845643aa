"""The columnar catchment map against a plain-dict model.

Every public method is exercised against :mod:`tests.catchment_model`
on the same data — seeded random mappings, scan output, and hand-picked
edge cases — plus the columnar extras (``site_indices_of``, shared
universes, ``BlockValueMap``) and the ``weight_catchment`` join, which
must produce float-identical :class:`SiteLoad` results to a per-block
loop.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.anycast.catchment import CatchmentMap
from repro.collector.results import BlockValueMap
from repro.errors import BlockLookupError, ConfigurationError, DatasetError
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN, weight_catchment
from repro.traffic.logs import LoadKind
from tests import catchment_model as model

SITES = ["LAX", "MIA", "ARI"]


def random_mapping(seed: int, size: int, span: int = 5000) -> dict:
    rng = random.Random(seed)
    blocks = rng.sample(range(span), size)
    return {block: rng.choice(SITES) for block in blocks}


def pair_for(seed: int, size: int = 120):
    mapping = random_mapping(seed, size)
    return mapping, CatchmentMap.from_mapping(SITES, mapping)


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
class TestMethodEquivalence:
    def test_len_contains_site_of(self, seed):
        mapping, columnar = pair_for(seed)
        assert len(columnar) == len(mapping)
        probes = list(mapping)[:20] + [-1, 10**9, 2**64 + 5]
        for block in probes:
            assert (block in columnar) == (block in mapping)
            assert columnar.site_of(block) == mapping.get(block)

    def test_blocks_items_are_sorted_dict_contents(self, seed):
        mapping, columnar = pair_for(seed)
        assert list(columnar.blocks()) == sorted(mapping)
        assert list(columnar.items()) == sorted(mapping.items())

    def test_blocks_of_site_counts_fractions(self, seed):
        mapping, columnar = pair_for(seed)
        expected = model.fractions(SITES, mapping)
        for code in (*SITES, "NOPE"):
            assert columnar.blocks_of_site(code) == model.blocks_of_site(mapping, code)
            assert columnar.fraction_of(code) == expected.get(code, 0.0)
        assert columnar.counts() == model.counts(SITES, mapping)
        assert columnar.fractions() == expected

    def test_restrict_round_trip(self, seed):
        mapping, columnar = pair_for(seed)
        rng = random.Random(seed + 1000)
        keep = rng.sample(sorted(mapping), len(mapping) // 2)
        keep += [999_999_999]  # absent blocks are ignored
        restricted = columnar.restrict(keep)
        assert dict(restricted.items()) == model.restrict(mapping, keep)
        # The universe is shared, not copied, and a full restrict round-trips.
        assert restricted.universe is columnar.universe
        full = columnar.restrict(list(columnar.blocks()))
        assert dict(full.items()) == mapping

    def test_diff_matches_reference_exactly(self, seed):
        mapping_a, col_a = pair_for(seed)
        later_mapping = random_mapping(seed + 500, 110)
        expected = model.diff(mapping_a, later_mapping)
        for later in [
            CatchmentMap.from_mapping(SITES, later_mapping),  # another universe
            # Another site vocabulary: later's indices are recoded.
            CatchmentMap.from_mapping(SITES[::-1], later_mapping),
            CatchmentMap.from_mapping([*SITES, "AMS"], later_mapping),
        ]:
            diff = col_a.diff(later)
            assert diff == expected
            assert diff.flipped_blocks == tuple(sorted(diff.flipped_blocks))

    def test_diff_on_shared_universe(self, seed):
        """The series case: same universe object, sites flip per round."""
        mapping = random_mapping(seed, 150)
        base = CatchmentMap.from_mapping(SITES, mapping)
        rng = random.Random(seed + 2000)
        sites = base.site_index_array.copy()
        for row in range(sites.size):
            roll = rng.random()
            if roll < 0.2:
                sites[row] = -1
            elif roll < 0.5:
                sites[row] = rng.randrange(len(SITES))
        later = CatchmentMap(SITES, base.universe, sites, validate=False)
        assert later.universe is base.universe
        expected = model.diff(dict(base.items()), dict(later.items()))
        assert base.diff(later) == expected


class TestConstructionAndValidation:
    def test_from_mapping_rejects_unknown_site(self):
        with pytest.raises(ConfigurationError):
            CatchmentMap.from_mapping(["LAX"], {1: "MIA"})

    def test_validate_rejects_malformed_arrays(self):
        with pytest.raises(ConfigurationError):
            CatchmentMap(SITES, np.array([1, 2]), np.array([0], dtype=np.int16))
        with pytest.raises(ConfigurationError):
            CatchmentMap(
                SITES,
                np.array([5, 3], dtype=np.uint64),
                np.array([0, 0], dtype=np.int16),
            )
        with pytest.raises(ConfigurationError):
            CatchmentMap(
                SITES,
                np.array([1, 2], dtype=np.uint64),
                np.array([0, len(SITES)], dtype=np.int16),
            )

    def test_empty_maps_agree(self):
        columnar = CatchmentMap.from_mapping(SITES, {})
        assert len(columnar) == 0
        assert columnar.counts() == model.counts(SITES, {})
        assert columnar.fractions() == model.fractions(SITES, {})
        assert columnar.diff(columnar) == model.diff({}, {})
        assert columnar.site_of(3) is None

    def test_unmapped_universe_entries_are_invisible(self):
        universe = np.array([1, 2, 3, 4], dtype=np.uint64)
        sites = np.array([0, -1, 1, -1], dtype=np.int16)
        columnar = CatchmentMap(SITES, universe, sites)
        assert len(columnar) == 2
        assert 2 not in columnar
        assert columnar.site_of(2) is None
        assert list(columnar.blocks()) == [1, 3]
        assert columnar.mapped_block_array().tolist() == [1, 3]


class TestSiteIndicesOf:
    def test_join_semantics(self):
        columnar = CatchmentMap(
            SITES,
            np.array([10, 20, 30], dtype=np.uint64),
            np.array([0, -1, 2], dtype=np.int16),
        )
        queries = np.array([5, 10, 20, 25, 30, 40], dtype=np.int64)
        indices = columnar.site_indices_of(queries)
        assert indices.dtype == np.int16
        assert indices.tolist() == [-1, 0, -1, -1, 2, -1]

    def test_empty_inputs(self):
        columnar = CatchmentMap.from_mapping(SITES, {})
        assert columnar.site_indices_of(np.array([1, 2])).tolist() == [-1, -1]
        full = CatchmentMap.from_mapping(SITES, {7: "LAX"})
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
        """The scan's map as a plain dict, and rebuilt from that dict."""
        mapping = dict(broot_scan.catchment.items())
        site_codes = broot_scan.catchment.site_codes
        return (site_codes, mapping), CatchmentMap.from_mapping(site_codes, mapping)

    @pytest.mark.parametrize("kind", sorted(LoadKind.ALL))
    def test_bit_identical_site_load(self, catchments, broot_tiny, kind):
        (site_codes, mapping), columnar_map = catchments
        estimate = LoadEstimate(broot_tiny.day_load("2017-04-12"), kind=kind)
        expected = model.site_load(site_codes, mapping, estimate)
        actual = weight_catchment(columnar_map, estimate)
        for code in (*site_codes, UNKNOWN):
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
            source = estimate.source
            scale = {
                LoadKind.QUERIES: np.ones(len(source.blocks)),
                LoadKind.GOOD_REPLIES: source.good_fraction,
                LoadKind.ALL_REPLIES: source.reply_fraction,
            }[kind]
            for row in range(50):
                assert np.array_equal(matrix[row], source.queries[row] * float(scale[row]))
