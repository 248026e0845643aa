"""Tests for load estimation, weighting, and prediction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anycast.catchment import CatchmentMap
from repro.bgp.reference import catchment_map
from repro.load.estimator import LoadEstimate
from repro.load.prediction import compare_prediction, measured_site_load
from repro.load.weighting import UNKNOWN, weight_catchment
from repro.traffic.ditl import build_day_load
from repro.traffic.logs import DayLoad, HOURS, LoadKind
from repro.traffic.workload import root_profile


def make_load():
    blocks = [1, 2, 3, 4]
    queries = np.ones((4, HOURS))
    queries[0] *= 100.0  # block 1 is heavy
    return DayLoad("svc", "d", blocks, queries,
                   np.array([0.5, 0.5, 0.5, 0.5]), np.full(4, 0.9))


class TestLoadEstimate:
    def test_of_block(self):
        estimate = LoadEstimate(make_load())
        assert estimate.of_block(1) == pytest.approx(2400.0)
        assert estimate.of_block(99) == 0.0

    def test_total(self):
        estimate = LoadEstimate(make_load())
        assert estimate.total() == pytest.approx(2400 + 3 * 24)

    def test_kinds(self):
        good = LoadEstimate(make_load(), LoadKind.GOOD_REPLIES)
        assert good.of_block(1) == pytest.approx(1200.0)
        replies = LoadEstimate(make_load(), LoadKind.ALL_REPLIES)
        assert replies.of_block(1) == pytest.approx(2160.0)

    def test_bad_kind(self):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError):
            LoadEstimate(make_load(), "nope")

    def test_hourly_of_block(self):
        estimate = LoadEstimate(make_load(), LoadKind.GOOD_REPLIES)
        assert estimate.blocks[0] == 1
        hourly = estimate.hourly_matrix()[0]
        assert hourly.shape == (HOURS,)
        assert hourly[0] == pytest.approx(50.0)


class TestWeighting:
    def test_attribution(self):
        catchment = CatchmentMap.from_mapping(["A", "B"], {1: "A", 2: "B", 3: "A"})
        site_load = weight_catchment(catchment, LoadEstimate(make_load()))
        assert site_load.daily_of("A") == pytest.approx(2400 + 24)
        assert site_load.daily_of("B") == pytest.approx(24)
        assert site_load.daily_of(UNKNOWN) == pytest.approx(24)  # block 4

    def test_unknown_fraction(self):
        catchment = CatchmentMap.from_mapping(["A"], {1: "A"})
        site_load = weight_catchment(catchment, LoadEstimate(make_load()))
        assert site_load.unknown_fraction() == pytest.approx(72 / 2472)

    def test_fractions_exclude_unknown_by_default(self):
        catchment = CatchmentMap.from_mapping(["A", "B"], {1: "A", 2: "B"})
        site_load = weight_catchment(catchment, LoadEstimate(make_load()))
        fractions = site_load.fractions()
        assert fractions["A"] + fractions["B"] == pytest.approx(1.0)

    def test_hourly_sums_match_daily(self):
        catchment = CatchmentMap.from_mapping(["A"], {1: "A", 2: "A", 3: "A", 4: "A"})
        site_load = weight_catchment(catchment, LoadEstimate(make_load()))
        assert site_load.hourly_of("A").sum() == pytest.approx(
            site_load.daily_of("A")
        )

    def test_empty_estimate_rejected(self):
        from repro.errors import DatasetError

        empty = DayLoad("s", "d", [], np.zeros((0, HOURS)), np.zeros(0), np.zeros(0))
        with pytest.raises(DatasetError):
            weight_catchment(CatchmentMap.from_mapping(["A"], {}), LoadEstimate(empty))


class TestPrediction:
    def test_prediction_tracks_actual(self, tiny_internet, two_site_routing):
        load = build_day_load(tiny_internet, root_profile(), "d")
        estimate = LoadEstimate(load)
        # "Perfect" catchment: ground truth for every block.
        truth = catchment_map(two_site_routing)
        predicted = weight_catchment(truth, estimate)
        measured = measured_site_load(two_site_routing, estimate)
        comparison = compare_prediction(predicted, measured)
        assert comparison.max_error() < 1e-9  # identical by construction

    def test_partial_catchment_close(self, tiny_internet, two_site_routing):
        load = build_day_load(tiny_internet, root_profile(), "d")
        estimate = LoadEstimate(load)
        truth = catchment_map(two_site_routing)
        # Drop every 5th block to simulate unmappable blocks.
        partial = CatchmentMap.from_mapping(
            truth.site_codes,
            {b: s for i, (b, s) in enumerate(sorted(truth.items())) if i % 5},
        )
        predicted = weight_catchment(partial, estimate)
        measured = measured_site_load(two_site_routing, estimate)
        comparison = compare_prediction(predicted, measured)
        # Paper §5.5: the error introduced by unmappable blocks is at
        # most their load share (they re-normalise over known sites).
        # At this tiny scale one whale block can carry ~25% of all
        # load, so the bound — not a fixed small threshold — is the
        # meaningful invariant.
        assert comparison.max_error() <= predicted.unknown_fraction() + 0.02

    def test_measured_load_has_hours(self, tiny_internet, two_site_routing):
        load = build_day_load(tiny_internet, root_profile(), "d")
        measured = measured_site_load(two_site_routing, LoadEstimate(load))
        for code in measured.site_codes:
            hourly = measured.hourly_of(code)
            assert measured.peak_of(code) == hourly.max() > 0
            assert hourly.sum() == pytest.approx(measured.daily_of(code), rel=1e-9)

    def test_measured_load_has_no_unknown(self, tiny_internet, two_site_routing):
        load = build_day_load(tiny_internet, root_profile(), "d")
        measured = measured_site_load(two_site_routing, LoadEstimate(load))
        assert measured.daily_of(UNKNOWN) == 0.0
