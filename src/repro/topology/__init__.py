"""Synthetic Internet topology.

Builds a deterministic, seeded model of the Internet at the granularity
the paper measures: autonomous systems with Gao-Rexford business
relationships, points of presence (PoPs) for large ASes, BGP-announced
prefixes, and populated /24 blocks with a host-responsiveness model.
"""
