"""Shared fixtures: tiny scenarios, reused across the suite.

Session-scoped because topology generation and routing are pure
functions of their seeds — tests never mutate them.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.bgp.propagation import compute_routes
from repro.core.scenarios import broot_like, tangled_like
from repro.core.verfploeter import Verfploeter
from repro.topology.generator import SeededAS, TopologyConfig, build_internet


@pytest.fixture(scope="session")
def tiny_internet():
    """A small standalone topology with two seeded upstreams."""
    return build_internet(
        TopologyConfig(
            seed=99,
            tier1_count=4,
            transit_count=12,
            stub_count=60,
            max_blocks_per_prefix=8,
            seeded_ases=(
                SeededAS("UP-A", "transit", "US", ("US",), ((20, 1),)),
                SeededAS("UP-B", "transit", "DE", ("DE",), ((20, 1),)),
            ),
        )
    )


@pytest.fixture(scope="session")
def broot_tiny():
    """The B-Root scenario at test scale."""
    return broot_like(scale="tiny", seed=7)


@pytest.fixture(scope="session")
def tangled_tiny():
    """The Tangled scenario at test scale."""
    return tangled_like(scale="tiny", seed=11)


@pytest.fixture(scope="session")
def broot_verfploeter(broot_tiny):
    """A Verfploeter deployment on the tiny B-Root scenario."""
    return Verfploeter(broot_tiny.internet, broot_tiny.service)


@pytest.fixture(scope="session")
def broot_routing(broot_verfploeter):
    """Default-policy routing for the tiny B-Root scenario."""
    return broot_verfploeter.routing_for()


@pytest.fixture(scope="session")
def broot_scan(broot_verfploeter, broot_routing):
    """One completed scan of the tiny B-Root scenario."""
    return broot_verfploeter.run_scan(routing=broot_routing, dataset_id="SBV-test")


@pytest.fixture
def wire_oracle():
    """``with wire_oracle():`` forces every scan through the wire path.

    ``Verfploeter.run_scan`` runs on the columnar engine unless asked
    for the packet-level oracle, and the drivers above it offer no
    switch — so the equivalence suites patch the dispatch itself to
    compare a whole driver against its wire-level twin.
    """

    @contextmanager
    def forced():
        dispatch = Verfploeter.run_scan

        def wire_scan(self, *args, **kwargs):
            kwargs["wire_level"] = True
            return dispatch(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Verfploeter, "run_scan", wire_scan)
            yield

    return forced


@pytest.fixture(scope="session")
def two_site_routing(tiny_internet):
    """Routing over the standalone topology with two sites A and B."""
    from repro.bgp.policy import AnnouncementPolicy

    policy = AnnouncementPolicy.uniform(
        {
            "A": tiny_internet.find_asn_by_name("UP-A"),
            "B": tiny_internet.find_asn_by_name("UP-B"),
        }
    )
    return compute_routes(tiny_internet, policy)
