"""Public API surface: everything advertised in __all__ must resolve."""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.netaddr",
    "repro.geo",
    "repro.topology",
    "repro.bgp",
    "repro.anycast",
    "repro.icmp",
    "repro.probing",
    "repro.collector",
    "repro.oracle",
    "repro.atlas",
    "repro.traffic",
    "repro.load",
    "repro.core",
    "repro.analysis",
    "repro.obs",
    "repro.service",
]


#: The packages with an ``__all__``: the three lazy tables and the eager ``obs``.
SURFACES = ["repro", "repro.lint", "repro.obs", "repro.service"]


@pytest.mark.parametrize("package_name", SURFACES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} has no __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_packages_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__.strip()) > 20


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_errors_hierarchy():
    from repro import errors

    for name in (
        "AddressError", "TopologyError", "RoutingError", "MeasurementError",
        "PacketError", "DNSError", "DatasetError", "ConfigurationError",
        "ServiceError", "HttpError",
    ):
        exception_type = getattr(errors, name)
        assert issubclass(exception_type, errors.ReproError)


def test_quickstart_snippet_works():
    """The README quickstart (at tiny scale), observer included."""
    from repro import Observer, Verfploeter, broot_like

    scenario = broot_like(scale="tiny")
    observer = Observer.collecting()
    vp = Verfploeter(scenario.internet, scenario.service, observer=observer)
    scan = vp.run_scan()
    fractions = scan.catchment.fractions()
    assert set(fractions) == {"LAX", "MIA"}
    assert sum(fractions.values()) == pytest.approx(1.0)
    metrics_table = observer.metrics.render_text()
    assert "probe.probes_sent" in metrics_table
    assert "catchment.fraction{site=LAX}" in metrics_table


def test_no_driver_takes_a_thread_fanout():
    """``pool=`` / ``--shards`` / ``--workers`` is the one fan-out, and
    no driver offers an engine switch."""
    import inspect

    from repro.cli import build_parser
    from repro.core.experiments import (
        prepend_sweep,
        run_stability_series,
        site_failure_study,
    )
    from repro.core.fastscan import FastScanEngine
    from repro.core.planning import evaluate_site_addition
    from repro.core.playbook import PlaybookPlanner

    for function in (
        prepend_sweep, run_stability_series, site_failure_study,
        FastScanEngine.run_series, PlaybookPlanner.plan,
    ):
        assert "parallel" not in inspect.signature(function).parameters
    for function in (
        run_stability_series, site_failure_study, evaluate_site_addition,
    ):
        assert "pool" not in inspect.signature(function).parameters
    with pytest.raises(SystemExit) as usage:
        build_parser().parse_args(["playbook", "--parallel", "2"])
    assert usage.value.code == 2


def test_deployment_takes_no_oracle_options():
    """A deployment is an Internet, a service, a hitlist and an observer;
    the wire walk's options belong to :func:`repro.oracle.scan.wire_scan`."""
    import inspect

    from repro.core.verfploeter import Verfploeter

    parameters = list(inspect.signature(Verfploeter.__init__).parameters)
    assert parameters == ["self", "internet", "service", "hitlist", "observer"]


def test_one_catchment_type():
    from repro.anycast import catchment

    maps = [name for name in vars(catchment) if name.endswith("CatchmentMap")]
    assert maps == ["CatchmentMap"]


def test_wire_level_scan_names_the_oracle(broot_verfploeter, broot_routing):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="repro.oracle.scan.wire_scan"):
        broot_verfploeter.run_scan(routing=broot_routing, wire_level=True)
