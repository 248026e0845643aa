"""AS business relationships (Gao-Rexford model).

Two relationship kinds: customer-provider (directional) and peer-peer
(symmetric).  The graph stores adjacency in both directions so BGP
propagation can walk "up" (toward providers), "across" (peers), and
"down" (toward customers) in separate phases.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import TopologyError


class Relationship:
    """Labels for the relationship a neighbour has *to us*."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"


class RelationshipGraph:
    """Directed AS relationship graph with O(1) neighbour lookups."""

    def __init__(self) -> None:
        self._providers: Dict[int, List[int]] = {}
        self._customers: Dict[int, List[int]] = {}
        self._peers: Dict[int, List[int]] = {}
        self._edges: Dict[Tuple[int, int], bool] = {}  # (a, b) -> peering

    def _check_new_edge(self, a: int, b: int, peering: bool) -> None:
        if a == b:
            raise TopologyError(f"self-loop on AS{a}")
        if self.has_link(a, b):
            raise TopologyError(f"duplicate relationship between AS{a} and AS{b}")
        self._edges[a, b] = peering

    def add_customer_provider(self, customer: int, provider: int) -> None:
        """Record that ``customer`` buys transit from ``provider``."""
        self._check_new_edge(customer, provider, False)
        self._providers.setdefault(customer, []).append(provider)
        self._customers.setdefault(provider, []).append(customer)

    def add_peering(self, a: int, b: int) -> None:
        """Record a settlement-free peering between ``a`` and ``b``."""
        self._check_new_edge(a, b, True)
        self._peers.setdefault(a, []).append(b)
        self._peers.setdefault(b, []).append(a)

    def has_link(self, a: int, b: int) -> bool:
        """True if any relationship exists between ``a`` and ``b``."""
        return (a, b) in self._edges or (b, a) in self._edges

    def providers_of(self, asn: int) -> List[int]:
        """ASes that ``asn`` buys transit from."""
        return self._providers.get(asn, [])

    def customers_of(self, asn: int) -> List[int]:
        """ASes that buy transit from ``asn``."""
        return self._customers.get(asn, [])

    def peers_of(self, asn: int) -> List[int]:
        """Settlement-free peers of ``asn``."""
        return self._peers.get(asn, [])
