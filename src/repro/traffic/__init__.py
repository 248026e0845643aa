"""DNS traffic substrate: query logs and synthetic workloads.

Stands in for the paper's RSSAC-002-style service logs (DITL datasets,
Table 2): per-/24 query volumes over a day in hourly bins, with the
statistical features the paper leans on — resolver concentration,
heavy-tailed rates, NAT-dense regions, and ping-unresponsive blocks
that still send real traffic.
"""

from repro.lazy import lazy_exports

# NOTE: repro.traffic.rssac is imported directly (not re-exported here)
# because it builds on repro.load, which itself builds on this package.

__all__ = [
    "DayLoad",
    "LoadKind",
    "WorkloadProfile",
    "root_profile",
    "nl_profile",
    "build_day_load",
    "AttackProfile",
    "attack_day_load",
    "compose_attack",
    "hotspot_blocks",
]

_EXPORTS = {
    "DayLoad": "repro.traffic.logs",
    "LoadKind": "repro.traffic.logs",
    "WorkloadProfile": "repro.traffic.workload",
    "root_profile": "repro.traffic.workload",
    "nl_profile": "repro.traffic.workload",
    "build_day_load": "repro.traffic.ditl",
    "AttackProfile": "repro.traffic.attack",
    "attack_day_load": "repro.traffic.attack",
    "compose_attack": "repro.traffic.attack",
    "hotspot_blocks": "repro.traffic.attack",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
