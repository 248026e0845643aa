"""Shared state for the benchmark harness.

Each bench file regenerates one of the paper's tables or figures and
prints it (run with ``pytest benchmarks/ --benchmark-only -s`` to see
the tables; without ``-s`` they are captured).  Expensive inputs —
scenarios, routing, scans, the 24-hour stability series — are computed
once per session here.

Scale note: the paper probes 6.4M /24s; the ``small`` scenario used
here covers ~8k /24s, so every count is ~1000x smaller while fractions
and shapes are comparable.
"""

from __future__ import annotations

import pytest

from repro.bgp.propagation import RoutingConfig, compute_routes
from repro.core.experiments import prepend_sweep, run_stability_series
from repro.core.scenarios import broot_like, nl_like, tangled_like
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate

#: The paper's B-Root day sees 2.2G queries; our topology has ~1000x
#: fewer blocks, so we target a proportionally scaled day.
BROOT_DAY_QUERIES = 2.2e6

BENCH_SCALE = "small"
STABILITY_ROUNDS = 96  # the paper's full 24-hour series (vectorised engine)


@pytest.fixture(scope="session")
def broot():
    return broot_like(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def tangled():
    return tangled_like(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def nl():
    return nl_like(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def broot_vp(broot):
    return Verfploeter(broot.internet, broot.service)


@pytest.fixture(scope="session")
def tangled_vp(tangled):
    return Verfploeter(tangled.internet, tangled.service)


@pytest.fixture(scope="session")
def broot_routing_may(broot):
    """Routing on the 'May 15' measurement date (era 1)."""
    return compute_routes(
        broot.internet, broot.service.default_policy(), config=RoutingConfig(era=1)
    )


@pytest.fixture(scope="session")
def broot_routing_april(broot):
    """Routing on the 'April 21' measurement date (era 0)."""
    return compute_routes(broot.internet, broot.service.default_policy())


@pytest.fixture(scope="session")
def broot_scan_may(broot_vp, broot_routing_may):
    return broot_vp.run_scan(
        routing=broot_routing_may, dataset_id="SBV-5-15"
    )


@pytest.fixture(scope="session")
def broot_scan_april(broot_vp, broot_routing_april):
    return broot_vp.run_scan(
        routing=broot_routing_april, round_id=1, dataset_id="SBV-4-21"
    )


@pytest.fixture(scope="session")
def broot_atlas_may(broot, broot_routing_may):
    return broot.atlas.measure(broot_routing_may, broot.service, measurement_id=1)


@pytest.fixture(scope="session")
def broot_atlas_april(broot, broot_routing_april):
    return broot.atlas.measure(broot_routing_april, broot.service, measurement_id=0)


@pytest.fixture(scope="session")
def broot_load_april(broot):
    """DITL-like day before anycast (LB-4-12)."""
    return broot.day_load(
        "2017-04-12", day_index=0, target_total_queries=BROOT_DAY_QUERIES
    )


@pytest.fixture(scope="session")
def broot_load_may(broot):
    """Post-deployment day (LB-5-15)."""
    return broot.day_load(
        "2017-05-15", day_index=1, target_total_queries=BROOT_DAY_QUERIES
    )


@pytest.fixture(scope="session")
def broot_estimate_may(broot_load_may):
    return LoadEstimate(broot_load_may)


@pytest.fixture(scope="session")
def broot_estimate_april(broot_load_april):
    return LoadEstimate(broot_load_april)


@pytest.fixture(scope="session")
def broot_sweep(broot, broot_vp):
    return prepend_sweep(broot_vp, broot.atlas)


@pytest.fixture(scope="session")
def tangled_series(tangled_vp):
    return run_stability_series(
        tangled_vp, rounds=STABILITY_ROUNDS, interval_seconds=900.0
    )
