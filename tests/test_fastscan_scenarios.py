"""Vectorised-engine equivalence across scenarios (9-site, 20-site)."""

from __future__ import annotations

import math

import pytest

from repro.core.fastscan import FastScanEngine
from repro.core.scenarios import cdn_like
from repro.core.verfploeter import Verfploeter
from repro.oracle.scan import wire_scan


@pytest.mark.parametrize("scenario_fixture", ["tangled_tiny"])
def test_tangled_equivalence(scenario_fixture, request):
    scenario = request.getfixturevalue(scenario_fixture)
    verfploeter = Verfploeter(scenario.internet, scenario.service)
    routing = verfploeter.routing_for()
    engine = FastScanEngine(verfploeter, routing)
    for round_id in (0, 4):
        wire = wire_scan(verfploeter, routing, round_id=round_id)
        fast = engine.run_scan(round_id=round_id)
        assert dict(fast.catchment.items()) == dict(wire.catchment.items())
        assert fast.stats == wire.stats
        for block, rtt in wire.rtts.items():
            assert math.isclose(fast.rtts[block], rtt, rel_tol=1e-9)


def test_cdn_equivalence():
    scenario = cdn_like(scale="tiny", seed=4242)
    verfploeter = Verfploeter(scenario.internet, scenario.service)
    routing = verfploeter.routing_for()
    engine = FastScanEngine(verfploeter, routing)
    wire = wire_scan(verfploeter, routing, round_id=3)
    fast = engine.run_scan(round_id=3)
    assert dict(fast.catchment.items()) == dict(wire.catchment.items())
    assert fast.stats == wire.stats


def test_withdrawn_site_policy_equivalence(broot_tiny):
    """The engine honours non-default policies (site withdrawal)."""
    verfploeter = Verfploeter(broot_tiny.internet, broot_tiny.service)
    policy = broot_tiny.service.policy(withdrawn=["MIA"])
    routing = verfploeter.routing_for(policy)
    engine = FastScanEngine(verfploeter, routing)
    wire = wire_scan(verfploeter, routing, round_id=1)
    fast = engine.run_scan(round_id=1)
    assert dict(fast.catchment.items()) == dict(wire.catchment.items())
    assert set(fast.catchment.fractions()) == {"LAX"}
