"""Synthetic Internet topology.

Builds a deterministic, seeded model of the Internet at the granularity
the paper measures: autonomous systems with Gao-Rexford business
relationships, points of presence (PoPs) for large ASes, BGP-announced
prefixes, and populated /24 blocks with a host-responsiveness model.
"""

from repro.lazy import lazy_exports

__all__ = [
    "ASTier",
    "AutonomousSystem",
    "PoP",
    "PrefixAllocator",
    "AnnouncedPrefix",
    "Relationship",
    "RelationshipGraph",
    "HostModel",
    "HostModelConfig",
    "Internet",
    "SeededAS",
    "TopologyConfig",
    "build_internet",
]

_EXPORTS = {
    "ASTier": "repro.topology.asys",
    "AutonomousSystem": "repro.topology.asys",
    "PoP": "repro.topology.asys",
    "PrefixAllocator": "repro.topology.allocator",
    "AnnouncedPrefix": "repro.topology.prefixes",
    "Relationship": "repro.topology.relationships",
    "RelationshipGraph": "repro.topology.relationships",
    "HostModel": "repro.topology.hosts",
    "HostModelConfig": "repro.topology.hosts",
    "Internet": "repro.topology.internet",
    "SeededAS": "repro.topology.asys",
    "TopologyConfig": "repro.topology.generator",
    "build_internet": "repro.topology.generator",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
