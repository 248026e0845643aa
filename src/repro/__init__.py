"""Verfploeter reproduction: broad, load-aware anycast catchment mapping.

Reproduction of de Vries et al., "Broad and Load-Aware Anycast Mapping
with Verfploeter" (IMC 2017), over a fully synthetic but
behaviour-faithful Internet substrate.  See DESIGN.md for the system
inventory and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import broot_like, Verfploeter

    scenario = broot_like(scale="small")
    vp = Verfploeter(scenario.internet, scenario.service)
    scan = vp.run_scan()
    print(scan.catchment.fractions())
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "ReproError": "repro.errors",
    "AnycastService": "repro.anycast.service",
    "AnycastSite": "repro.anycast.site",
    "CatchmentMap": "repro.anycast.catchment",
    "AnnouncementPolicy": "repro.bgp.policy",
    "compute_routes": "repro.bgp.propagation",
    "Internet": "repro.topology.internet",
    "TopologyConfig": "repro.topology.generator",
    "build_internet": "repro.topology.generator",
    "Verfploeter": "repro.core.verfploeter",
    "ScanResult": "repro.collector.results",
    "Scenario": "repro.core.scenarios",
    "broot_like": "repro.core.scenarios",
    "tangled_like": "repro.core.scenarios",
    "nl_like": "repro.core.scenarios",
    "cdn_like": "repro.core.scenarios",
    "compare_coverage": "repro.core.comparison",
    "prepend_sweep": "repro.core.experiments",
    "run_stability_series": "repro.core.experiments",
    "DayLoad": "repro.traffic.logs",
    "LoadKind": "repro.traffic.logs",
    "build_day_load": "repro.traffic.ditl",
    "AttackProfile": "repro.traffic.attack",
    "PlaybookPlanner": "repro.core.playbook",
    "LoadEstimate": "repro.load.estimator",
    "weight_catchment": "repro.load.weighting",
    "Observer": "repro.obs",
    "NULL_OBSERVER": "repro.obs",
}
__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
