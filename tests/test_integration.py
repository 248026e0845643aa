"""End-to-end integration tests: the paper's pipelines, miniaturised."""

from __future__ import annotations

import pytest

from repro.core.comparison import compare_coverage
from repro.core.experiments import prepend_sweep, run_stability_series
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.prediction import compare_prediction, measured_site_load
from repro.load.weighting import weight_catchment


class TestBRootPipeline:
    """The paper's B-Root study end to end (Tables 4-6)."""

    def test_full_pipeline(self, broot_tiny):
        scenario = broot_tiny
        verfploeter = Verfploeter(scenario.internet, scenario.service)
        routing = verfploeter.routing_for()

        # Table 4: coverage.
        scan = verfploeter.run_scan(routing=routing, dataset_id="SBV")
        atlas = scenario.atlas.measure(routing, scenario.service)
        coverage = compare_coverage(atlas, scan, scenario.internet)
        assert coverage.coverage_ratio > 10
        assert coverage.atlas_overlap_fraction > 0.5

        # Table 5: traffic coverage.
        estimate = LoadEstimate(scenario.day_load("2017-05-15"))
        from repro.analysis.traffic_coverage import traffic_coverage

        traffic = traffic_coverage(scan.catchment, estimate)
        assert 0.6 < traffic.block_coverage < 1.0
        assert 0.5 < traffic.query_coverage < 1.0

        # Table 6: method comparison — load weighting should not move
        # the prediction further from the measured load than the raw
        # block fraction by a wide margin, and both must land within
        # the plausible band.
        predicted = weight_catchment(scan.catchment, estimate)
        measured = measured_site_load(routing, estimate)
        comparison = compare_prediction(predicted, measured)
        assert comparison.max_error() < 0.25
        assert 0.0 < comparison.measured["LAX"] < 1.0

    def test_test_prefix_parallels_service(self, broot_tiny):
        """The paper's pre-deployment trick: measure on a test prefix."""
        from repro.netaddr.prefix import Prefix

        clone = broot_tiny.service.test_prefix_clone(Prefix("199.9.15.0/24"))
        verfploeter = Verfploeter(broot_tiny.internet, clone)
        scan = verfploeter.run_scan()
        reference = Verfploeter(broot_tiny.internet, broot_tiny.service).run_scan()
        # Same sites and announcements, so identical catchments.
        assert dict(scan.catchment.items()) == dict(reference.catchment.items())


class TestTangledPipeline:
    """The paper's Tangled studies (Figures 3, 7-9; Table 7)."""

    @pytest.fixture(scope="class")
    def verfploeter(self, tangled_tiny):
        return Verfploeter(tangled_tiny.internet, tangled_tiny.service)

    def test_nine_site_catchments(self, tangled_tiny, verfploeter):
        scan = verfploeter.run_scan()
        fractions = scan.catchment.fractions()
        populated = [code for code, value in fractions.items() if value > 0.01]
        assert len(populated) >= 5, f"too few active sites: {fractions}"

    def test_stability_series_shape(self, tangled_tiny, verfploeter):
        series = run_stability_series(verfploeter, rounds=10)
        stable = series.median_of("stable")
        flipped = series.median_of("flipped")
        churn = series.median_of("to_nr")
        assert stable > 0
        # Figure 9 ordering: stable >> churn > flips.
        assert stable > 10 * churn
        assert churn > flipped

    def test_flips_concentrate_in_flipper_ases(self, tangled_tiny, verfploeter):
        series = run_stability_series(verfploeter, rounds=10)
        from repro.analysis.flips import flip_table

        rows = flip_table(series, tangled_tiny.internet, top=5)
        if series.total_flips() >= 10:
            top_names = {row.name.split()[-1] for row in rows[:2]}
            assert top_names & {"CHINANET", "COMCAST", "ITCDELTA", "ALIBABA", "ONO-AS"}

    def test_division_analysis_after_stability_filter(
        self, tangled_tiny, verfploeter
    ):
        from repro.analysis.divisions import multi_site_fraction

        series = run_stability_series(verfploeter, rounds=6)
        stable_catchment = series.stable_catchment()
        fraction = multi_site_fraction(stable_catchment, tangled_tiny.internet)
        assert 0.0 < fraction < 0.5


class TestPrependPipeline:
    def test_sweep_with_atlas_and_load(self, broot_tiny):
        verfploeter = Verfploeter(broot_tiny.internet, broot_tiny.service)
        sweep = prepend_sweep(verfploeter, broot_tiny.atlas)
        estimate = LoadEstimate(broot_tiny.day_load("2017-04-12"))
        from repro.analysis.prepend import hourly_load_by_config

        hourly = hourly_load_by_config(sweep, estimate)
        # More prepending on MIA -> more of every hour's load at LAX.
        lax_by_config = {
            label: sum(series["LAX"]) for label, series in hourly.items()
        }
        assert lax_by_config["+1 LAX"] <= lax_by_config["+3 MIA"]
