"""The declared layer DAG of the ``repro`` package.

A package may import from its own layer or any lower layer, never from
a higher one.  Within-layer imports are allowed (e.g. ``bgp`` and
``anycast`` reference each other's value types), which is the standard
layered-architecture reading of the DAG

    netaddr/rng/errors -> geo/topology -> bgp/icmp/dns/traffic
        -> probing/collector/atlas/load/analysis
        -> core -> cli

with four additions reflecting the tree as it actually is:

* ``anycast`` (sites, service, catchment value types) sits with ``bgp``
  — and ``traffic.attack`` leans on this: it reads catchment value
  types (a within-layer import) to concentrate attack hotspots, while
  the planner consuming it (``core.playbook``) sits at layer 4 with
  the other experiment drivers;
* ``lint`` (this tool) is layer 0 — it imports only ``errors``;
* ``obs`` (tracing spans, metrics, profiling hooks) is also layer 0:
  every pipeline layer above it reports into it, so it may import
  nothing but ``errors``;
* ``datasets`` and ``reporting`` sit between ``core`` and ``cli``:
  they serialise and render *outputs* of the core drivers;
* ``service`` (the always-on mapping daemon) sits with them: it drives
  ``core`` deployments and the layer-3 collector/load machinery, and
  only ``cli`` sits above it.

``analysis`` is kept below ``core`` by construction: the result types
it consumes (:class:`~repro.collector.results.ScanResult`,
:class:`~repro.analysis.results.StabilitySeries`, ...) live in layer-3
modules, and ``core`` re-exports them for its callers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Index in this tuple == layer number (0 is the bottom).
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("errors", "rng", "netaddr", "lint", "obs"),
    ("geo", "topology"),
    ("anycast", "bgp", "icmp", "dns", "traffic"),
    ("probing", "collector", "atlas", "load", "analysis"),
    ("core",),
    ("datasets", "reporting", "service"),
    ("cli", "__init__", "__main__"),
)

_LAYER_OF: Dict[str, int] = {}
for _index, _members in enumerate(LAYERS):
    for _member in _members:
        _LAYER_OF[_member] = _index


def layer_of(package: str) -> Optional[int]:
    """Layer number of a top-level package, or None if undeclared."""
    return _LAYER_OF.get(package)
