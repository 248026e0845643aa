"""DNS traffic substrate: query logs and synthetic workloads.

Stands in for the paper's RSSAC-002-style service logs (DITL datasets,
Table 2): per-/24 query volumes over a day in hourly bins, with the
statistical features the paper leans on — resolver concentration,
heavy-tailed rates, NAT-dense regions, and ping-unresponsive blocks
that still send real traffic.
"""

from repro.traffic.attack import (
    AttackProfile,
    attack_day_load,
    compose_attack,
    hotspot_blocks,
)
from repro.traffic.ditl import build_day_load
from repro.traffic.logs import DayLoad, LoadKind
from repro.traffic.workload import WorkloadProfile, nl_profile, root_profile

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
