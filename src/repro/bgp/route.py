"""Route representations."""

from __future__ import annotations

from dataclasses import dataclass


class RouteClass:
    """Local-preference classes, ordered best-first.

    Gao-Rexford: routes learned from customers beat routes learned from
    peers beat routes learned from providers, regardless of path length.
    """

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2

    NAMES = {CUSTOMER: "customer", PEER: "peer", PROVIDER: "provider"}


@dataclass(frozen=True)
class CandidateRoute:
    """One equally-preferred route available at an AS.

    ``neighbor_asn`` is the next hop (0 for a route learned directly
    from the anycast service itself); ``site_code`` is the anycast site
    the route ultimately leads to; ``path_length`` is the AS-path length
    as observed at the selecting AS (prepending inflates it).
    """

    neighbor_asn: int
    site_code: str
    path_length: int
    route_class: int
