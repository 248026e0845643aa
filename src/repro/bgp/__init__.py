"""BGP policy routing over the synthetic topology.

Implements Gao-Rexford route propagation (customer > peer > provider
local preference, then shortest AS path, then a deterministic arbitrary
tie-break), AS-path prepending for traffic engineering (paper §6.1), and
the per-packet load-balancing instability model behind the paper's
catchment-flip observations (§6.3, Table 7).
"""

from repro.lazy import lazy_exports

__all__ = [
    "RouteClass",
    "CandidateRoute",
    "SiteAnnouncement",
    "AnnouncementPolicy",
    "RouteSelection",
    "RoutingOutcome",
    "compute_routes",
    "DeltaPropagator",
    "DeltaStats",
    "delta_routes",
    "RoutingCache",
    "CacheStats",
    "default_routing_cache",
    "internet_fingerprint",
    "policy_fingerprint",
    "FlipModelConfig",
    "RoutingConfig",
    "OriginLookup",
    "read_rib_dump",
    "write_rib_dump",
    "BgpUpdateSimulator",
    "UpdateOutcome",
]

_EXPORTS = {
    "RouteClass": "repro.bgp.route",
    "CandidateRoute": "repro.bgp.route",
    "SiteAnnouncement": "repro.bgp.policy",
    "AnnouncementPolicy": "repro.bgp.policy",
    "RouteSelection": "repro.bgp.reference",
    "RoutingOutcome": "repro.bgp.propagation",
    "compute_routes": "repro.bgp.propagation",
    "DeltaPropagator": "repro.bgp.delta",
    "DeltaStats": "repro.bgp.delta",
    "delta_routes": "repro.bgp.delta",
    "RoutingCache": "repro.bgp.cache",
    "CacheStats": "repro.bgp.cache",
    "default_routing_cache": "repro.bgp.cache",
    "internet_fingerprint": "repro.bgp.cache",
    "policy_fingerprint": "repro.bgp.cache",
    "FlipModelConfig": "repro.bgp.instability",
    "RoutingConfig": "repro.bgp.propagation",
    "OriginLookup": "repro.bgp.ribdump",
    "read_rib_dump": "repro.bgp.ribdump",
    "write_rib_dump": "repro.bgp.ribdump",
    "BgpUpdateSimulator": "repro.bgp.updates",
    "UpdateOutcome": "repro.bgp.updates",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
