"""Tests for the site-failure what-if study."""

from __future__ import annotations

import pytest

from repro.core.experiments import site_failure_study
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN


@pytest.fixture(scope="module")
def estimate(broot_tiny):
    return LoadEstimate(broot_tiny.day_load("failure-day"))


@pytest.fixture(scope="module")
def results(broot_verfploeter, estimate):
    return site_failure_study(broot_verfploeter, estimate)


class TestSiteFailure:
    def test_one_result_per_site(self, broot_tiny, results):
        assert [r.withdrawn_site for r in results] == broot_tiny.service.site_codes

    def test_unknown_bucket_tracked(self, results):
        for result in results:
            assert UNKNOWN in result.baseline
            assert UNKNOWN in result.after

    def test_withdrawn_site_gets_nothing(self, results):
        for result in results:
            assert result.after[result.withdrawn_site] == 0.0

    def test_survivor_load_increases(self, results):
        for result in results:
            survivors = [
                code for code in result.baseline
                if code != result.withdrawn_site and code != UNKNOWN
            ]
            gained = sum(
                result.after[code] - result.baseline[code] for code in survivors
            )
            assert gained > 0

    def test_total_load_conserved_including_unknown(self, results, estimate):
        """Every query lands somewhere: sites + UNK = the whole day."""
        for result in results:
            assert sum(result.baseline.values()) == pytest.approx(estimate.total())
            assert sum(result.after.values()) == pytest.approx(estimate.total())

    def test_worst_overload_at_least_one(self, results):
        for result in results:
            _, factor = result.worst_overload()
            assert factor >= 1.0

    def test_subset_of_sites(self, broot_verfploeter, estimate):
        only_lax = site_failure_study(broot_verfploeter, estimate, sites=["LAX"])
        assert len(only_lax) == 1
        assert only_lax[0].withdrawn_site == "LAX"
