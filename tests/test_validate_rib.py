"""validate_rib: valley-free best paths and RIB/announcement agreement."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.bgp.reference import selections
from repro.errors import TopologyError
from repro.netaddr.prefix import Prefix
from repro.topology.validate import validate_rib


def validate_outcome(internet, routing, rib_entries=None):
    """``validate_rib`` of an outcome's reference selections."""
    return validate_rib(
        internet, routing.policy.site_codes, selections(routing), rib_entries
    )


def test_computed_routing_is_valid(broot_tiny, broot_routing):
    report = validate_outcome(broot_tiny.internet, broot_routing)
    assert report.ok, report.errors


def test_two_site_routing_is_valid(tiny_internet, two_site_routing):
    report = validate_outcome(tiny_internet, two_site_routing)
    assert report.ok, report.errors


def test_rib_entries_matching_announcements_pass(broot_tiny, broot_routing):
    internet = broot_tiny.internet
    entries = [(entry.prefix, entry.origin_asn) for entry in internet.announced]
    report = validate_outcome(internet, broot_routing, rib_entries=entries)
    assert report.ok, report.errors


def test_unannounced_rib_prefix_is_an_error(broot_tiny, broot_routing):
    internet = broot_tiny.internet
    bogus = Prefix("203.0.113.0", 24)
    assert all(entry.prefix != bogus for entry in internet.announced)
    report = validate_outcome(internet, broot_routing, rib_entries=[(bogus, 1)])
    assert not report.ok
    assert "not announced" in report.errors[0]
    with pytest.raises(TopologyError):
        report.raise_if_invalid()


def test_wrong_origin_is_an_error(broot_tiny, broot_routing):
    internet = broot_tiny.internet
    entry = sorted(internet.announced, key=lambda e: e.prefix)[0]
    report = validate_outcome(
        internet, broot_routing, rib_entries=[(entry.prefix, entry.origin_asn + 1)]
    )
    assert not report.ok
    assert "originated by" in report.errors[0]


def _fake_selection(asn, site, as_path):
    return SimpleNamespace(asn=asn, primary_site=site, as_path=as_path)


def test_valley_path_is_rejected(tiny_internet):
    graph = tiny_internet.graph
    # Find a stub with two providers: path (provider_a, stub,
    # provider_b, 0) descends into a customer and climbs back out — the
    # canonical valley.
    stub = provider_a = provider_b = None
    for asn in sorted(tiny_internet.ases):
        providers = sorted(graph.providers_of(asn))
        if len(providers) >= 2:
            stub, provider_a, provider_b = asn, providers[0], providers[1]
            break
    assert stub is not None, "topology has no multi-homed AS"
    report = validate_rib(
        tiny_internet,
        ["A"],
        {provider_a: _fake_selection(provider_a, "A", (provider_a, stub, provider_b, 0))},
    )
    assert not report.ok
    assert "valley-free" in report.errors[0]


def test_non_adjacent_hop_is_rejected(tiny_internet):
    graph = tiny_internet.graph
    ases = sorted(tiny_internet.ases)
    a = ases[0]
    b = next(
        asn for asn in ases if asn != a and not graph.has_link(a, asn)
    )
    report = validate_rib(tiny_internet, ["A"], {a: _fake_selection(a, "A", (a, b, 0))})
    assert not report.ok
    assert "no adjacency" in report.errors[0]


def test_undeclared_site_and_unknown_as_are_rejected(tiny_internet):
    report = validate_rib(
        tiny_internet,
        ["A"],
        {
            999_999: _fake_selection(999_999, "A", ()),
            sorted(tiny_internet.ases)[0]: _fake_selection(
                sorted(tiny_internet.ases)[0], "NOPE", ()
            ),
        },
    )
    assert any("unknown AS" in error for error in report.errors)
    assert any("undeclared site" in error for error in report.errors)
