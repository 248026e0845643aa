"""The scalar Gao-Rexford reference: one AS at a time, one route object each.

:func:`repro.bgp.sweep.propagate` is the one propagation the library
runs.  This module is its oracle: the same decision
(:mod:`repro.bgp.propagation` describes it) written as three
Dijkstra-style phases over per-AS :class:`RouteSelection` objects, in
the order the paper's BGP would settle it.  ``tests/test_bgp_sweep.py``
holds every column of every propagated table equal to
:func:`table_from_selections` of a :class:`_Propagator` run; the delta
engine (:mod:`repro.bgp.delta`), the update simulator
(:mod:`repro.bgp.updates`) and the AS-path dump
(:mod:`repro.bgp.ribdump`) build on the objects it keeps.

A :class:`~repro.bgp.propagation.RoutingOutcome` holds only its table.
The reads here — :func:`selections`, :func:`state`,
:func:`selection_of` and :func:`catchment_map` — are functions of an
outcome: the first one on an outcome runs the reference once for it,
unless the outcome came from :func:`outcome_from_selections`, which
keeps the selections (and working maps) it was built from.

:func:`site_of_block` (one block's PoP, then :func:`site_for`'s flip
decision) is the scalar twin of ``RoutingOutcome.sites_of``; it and
:func:`reachable_fraction` read the table without running the reference.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anycast.catchment import CatchmentMap
from repro.bgp.instability import _FLIP_SALT, _PARTICIPATE_SALT, FLIP_RATES, FlipModelConfig
from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import RoutingConfig, RoutingOutcome
from repro.bgp.route import CandidateRoute, RouteClass
from repro.bgp.sweep import (
    DRIFT_SALT,
    EDGE_SALT,
    NO_ROUTE,
    PIN_SALT,
    AsColumns,
    RouteTable,
    as_columns,
    site_hash,
)
from repro.errors import RoutingError, TopologyError
from repro.geo.geodb import row_of
from repro.rng import mix64, uniform_unit
from repro.topology.asys import AutonomousSystem, PoP
from repro.topology.internet import Internet

_SERVICE_NEIGHBOR = 0  # sentinel neighbour ASN for routes heard from the service
_INF = 1 << 30


@dataclass
class RouteSelection:
    """The route an AS selected, plus equally/nearly-preferred alternatives."""

    asn: int
    route_class: int
    path_length: int
    primary_site: str
    candidates: Tuple[CandidateRoute, ...]
    near_routes: Tuple[Tuple[int, str], ...] = ()
    alternate_site: Optional[str] = None
    pinned: bool = False
    #: The selected route's AS path as this AS would export it: itself
    #: first, the service's sentinel ASN (0) last, repeated once per
    #: prepend.  Follows the *primary* candidate; at multi-exit points
    #: the hot-potato site split is not reflected here.
    as_path: Tuple[int, ...] = ()

    @property
    def candidate_sites(self) -> Tuple[str, ...]:
        """Distinct sites reachable through equally-preferred routes."""
        seen: List[str] = []
        for candidate in self.candidates:
            if candidate.site_code not in seen:
                seen.append(candidate.site_code)
        return tuple(seen)

    @property
    def pop_sites(self) -> Tuple[str, ...]:
        """Distinct sites within slack of the best route, best first."""
        return tuple(site for _, site in self.near_routes)

    def _weighted_pick(self, hash_value: int) -> str:
        """Pick a near site, weighted toward cheaper routes.

        Weight halves per unit of extra cost (8/4/2/1), so closer
        routes win most of the time and prepending — which changes the
        deltas — shifts the distribution *monotonically* instead of
        reshuffling a uniform choice.  :func:`repro.bgp.sweep.weighted_pick`
        is the array twin.
        """
        if not self.near_routes:
            return self.primary_site
        if len(self.near_routes) == 1:
            return self.near_routes[0][1]
        weights = [8 >> min(delta, 3) for delta, _ in self.near_routes]
        total = sum(weights)
        draw = hash_value % total
        for weight, (_, site) in zip(weights, self.near_routes):
            if draw < weight:
                return site
            draw -= weight
        return self.near_routes[-1][1]

    def site_for_importer(self, importer_asn: int) -> str:
        """Site this AS's export leads to, as seen by ``importer_asn``.

        A multi-exit AS (several nearly-equal routes to different sites)
        hands different neighbours different effective exits depending on
        where they connect — the entry point picks the egress under
        hot-potato routing.  Deterministic per (this AS, importer) so
        catchments are stable across rounds.
        """
        return self._weighted_pick(
            mix64(self.asn * 0x9E3779B1 ^ importer_asn * 0x85EBCA6B)
        )

    def site_for_pop(self, pop_id: int) -> str:
        """Site a given PoP of this AS egresses to (hot-potato)."""
        return self._weighted_pick(mix64(pop_id * 0x51ED + 17))


def edge_cost(seed: int, config: RoutingConfig, importer: int, exporter: int) -> int:
    """Routing cost of importing a route from ``exporter`` (shared).

    One AS hop plus deterministic jitter (MEDs / intra-AS policy), with
    optional per-era re-rolls modelling routing drift over time.  Both
    the reference propagator and the event-driven update simulator use
    this function, so their route costs are comparable.
    """
    edge_id = importer * 131071 + exporter
    draw = uniform_unit(seed, EDGE_SALT, edge_id)
    era = config.era
    if era and (
        uniform_unit(seed, DRIFT_SALT, edge_id) < config.era_drift_probability
    ):
        draw = uniform_unit(seed, DRIFT_SALT, edge_id, era)
    jitter = len(config.jitter_weights) - 1
    cumulative = 0.0
    for level, weight in enumerate(config.jitter_weights):
        cumulative += weight
        if draw < cumulative:
            jitter = level
            break
    return 1 + jitter


def is_pinned(seed: int, config: RoutingConfig, customer: int, provider: int) -> bool:
    """Whether ``customer`` pins ``provider`` for the anycast prefix (shared)."""
    return (
        uniform_unit(seed, PIN_SALT, customer * 524287 + provider)
        < config.pin_probability
    )


def _near_tuple(near: Dict[str, int]) -> Tuple[Tuple[int, str], ...]:
    """Sort (site -> delta) into the (delta, site) tuples a selection stores."""
    return tuple(sorted((delta, site) for site, delta in near.items()))


def _tie_hash(asn: int, neighbor: int, site_code: str) -> int:
    return mix64(mix64(asn * 0x9E37 + neighbor) ^ site_hash(site_code))


def _alternate_for(
    internet: Internet, site_codes: List[str], selection: RouteSelection
) -> Optional[str]:
    """The alternate site a selection would be assigned (see _assign_alternates).

    A pure function of the selection's own routes, the announcing site
    list, and the AS's flipper flag — shared by the full propagator and
    the delta engine so both assign identical alternates.  Every exact
    candidate has delta 0, within any slack, so ``candidate_sites`` is a
    subset of ``pop_sites`` and the near sites alone are the pool.
    """
    for site in selection.pop_sites:
        if site != selection.primary_site:
            return site
    if len(site_codes) > 1 and internet.ases[selection.asn].flipper:
        # Per-packet load balancing across unequal paths: a flipper
        # with one equal-cost route still oscillates toward a
        # deterministic next-best site.
        others = [s for s in site_codes if s != selection.primary_site]
        return others[mix64(selection.asn * 0xA5A5) % len(others)]
    return None


def table_from_selections(
    columns: AsColumns, site_codes: Sequence[str], selections: Dict[int, RouteSelection]
) -> RouteTable:
    """Route columns of a ``selections`` dict, one pass."""
    codes = tuple(sorted(site_codes))
    site_of = {code: i for i, code in enumerate(codes)}
    count = columns.asns.size
    route_class = np.full(count, NO_ROUTE, dtype=np.int8)
    path_length = np.zeros(count, dtype=np.int16)
    primary = np.full(count, NO_ROUTE, dtype=np.int16)
    pinned = np.zeros(count, dtype=bool)
    alternate = np.full(count, NO_ROUTE, dtype=np.int16)
    near = np.full((count, len(codes)), np.iinfo(np.int8).max, dtype=np.int8)
    for asn, selection in selections.items():
        i = columns.index[asn]
        route_class[i] = selection.route_class
        path_length[i] = selection.path_length
        primary[i] = site_of[selection.primary_site]
        pinned[i] = selection.pinned
        if selection.alternate_site is not None:
            alternate[i] = site_of[selection.alternate_site]
        for delta, site in selection.near_routes:
            near[i, site_of[site]] = delta
    return RouteTable(codes, route_class, path_length, primary, pinned, alternate, near)


@dataclass
class _SharedCaches:
    """Memo tables for the pure per-pair draws of one (seed, config).

    Edge costs, pin decisions, tie hashes and importer hashes are pure
    functions of the topology seed, the routing config and the AS pair,
    so a baseline's tables stay valid for every delta recomputation
    under the same config — sharing them is what makes rebuilding a
    selection much cheaper than building it from scratch.
    """

    edge: Dict[Tuple[int, int], int] = field(default_factory=dict)
    pins: Dict[Tuple[int, int], bool] = field(default_factory=dict)
    ties: Dict[Tuple[int, int, str], int] = field(default_factory=dict)
    import_hash: Dict[Tuple[int, int], int] = field(default_factory=dict)


@dataclass
class _PropagationState:
    """Working maps retained from one propagation for incremental reuse.

    A :class:`~repro.bgp.delta.DeltaPropagator` diffs these against a
    re-derived skeleton to decide which route selections can possibly
    have changed; everything else is spliced through unchanged.
    """

    config: RoutingConfig
    cust_dist: Dict[int, int]
    provider_dist: Dict[int, int]
    export_len: Dict[int, int]
    origin_entries: Dict[int, List[CandidateRoute]]
    caches: _SharedCaches


class _Propagator:
    """Holds working state of one propagation run."""

    def __init__(
        self,
        internet: Internet,
        policy: AnnouncementPolicy,
        config: RoutingConfig,
        caches: Optional[_SharedCaches] = None,
    ) -> None:
        self.internet = internet
        self.policy = policy
        self.config = config
        self.graph = internet.graph
        self.seed = internet.seed
        self.selections: Dict[int, RouteSelection] = {}
        # Per-pair draws are pure in (seed, config, pair), so a
        # baseline's caches can be shared with delta recomputations.
        self._caches = caches if caches is not None else _SharedCaches()
        self._origin_entries: Dict[int, List[CandidateRoute]] = {}
        self._state: Optional[_PropagationState] = None

    def edge_cost(self, importer: int, exporter: int) -> int:
        """Cached shared edge cost (see module-level :func:`edge_cost`)."""
        key = (importer, exporter)
        cached = self._caches.edge.get(key)
        if cached is not None:
            return cached
        cost = edge_cost(self.seed, self.config, importer, exporter)
        self._caches.edge[key] = cost
        return cost

    def tie_hash(self, asn: int, neighbor: int, site_code: str) -> int:
        """Cached tie-break hash (see module-level :func:`_tie_hash`)."""
        key = (asn, neighbor, site_code)
        cached = self._caches.ties.get(key)
        if cached is None:
            cached = _tie_hash(asn, neighbor, site_code)
            self._caches.ties[key] = cached
        return cached

    def import_site(self, selection: RouteSelection, importer: int) -> str:
        """``selection.site_for_importer`` with the hash draw cached.

        The hash depends only on the (exporter, importer) pair, so it is
        shareable even when the exporter's selection changes between
        baseline and delta.
        """
        key = (selection.asn, importer)
        cached = self._caches.import_hash.get(key)
        if cached is None:
            cached = mix64(selection.asn * 0x9E3779B1 ^ importer * 0x85EBCA6B)
            self._caches.import_hash[key] = cached
        return selection._weighted_pick(cached)

    def slack_for(self, asn: int) -> int:
        """Near-candidate slack for ``asn``.

        Multi-PoP ASes hold eBGP sessions at many locations and see a
        wider spread of nearly-equal routes, so they get one extra unit
        of slack — this is the lever behind intra-AS catchment splits
        (paper §6.2) without perturbing single-PoP catchments.
        """
        base = self.config.pop_slack
        if self.internet.ases[asn].is_multi_pop:
            return base + 2
        return base

    def is_pinned(self, customer: int, provider: int) -> bool:
        """Cached shared pin draw (see module-level :func:`is_pinned`)."""
        key = (customer, provider)
        cached = self._caches.pins.get(key)
        if cached is None:
            cached = is_pinned(self.seed, self.config, customer, provider)
            self._caches.pins[key] = cached
        return cached

    # -- phases ------------------------------------------------------------

    def run(self) -> Dict[int, RouteSelection]:
        cust_dist = self._phase_up()
        self._resolve_customer(cust_dist)
        self._phase_peers(cust_dist)
        provider_dist, export_len = self._compute_provider_dist()
        self._resolve_provider(provider_dist, export_len)
        self._assign_alternates()
        self._state = _PropagationState(
            config=self.config,
            cust_dist=cust_dist,
            provider_dist=provider_dist,
            export_len=export_len,
            origin_entries=self._origin_entries,
            caches=self._caches,
        )
        return self.selections

    def _phase_up(self) -> Dict[int, int]:
        """Dijkstra of customer-learned routes up the provider DAG."""
        cust_dist: Dict[int, int] = {}
        heap: List[Tuple[int, int]] = []
        self._origin_entries = {}
        for announcement in self.policy.announcements:
            upstream = announcement.upstream_asn
            if upstream not in self.internet.ases:
                raise RoutingError(
                    f"upstream AS{upstream} for site {announcement.site_code} "
                    "does not exist in the topology"
                )
            length = announcement.effective_length
            self._origin_entries.setdefault(upstream, []).append(
                CandidateRoute(
                    _SERVICE_NEIGHBOR, announcement.site_code, length, RouteClass.CUSTOMER
                )
            )
            if length < cust_dist.get(upstream, _INF):
                cust_dist[upstream] = length
                heapq.heappush(heap, (length, upstream))
        while heap:
            length, asn = heapq.heappop(heap)
            if length > cust_dist.get(asn, _INF):
                continue
            for provider in self.graph.providers_of(asn):
                candidate = length + self.edge_cost(provider, asn)
                if candidate < cust_dist.get(provider, _INF):
                    cust_dist[provider] = candidate
                    heapq.heappush(heap, (candidate, provider))
        return cust_dist

    def _resolve_customer(self, cust_dist: Dict[int, int]) -> None:
        """Pick primaries for customer-route holders in distance order."""
        for asn in sorted(cust_dist, key=lambda a: (cust_dist[a], a)):
            self.selections[asn] = self._customer_selection(asn, cust_dist)

    def _customer_selection(
        self, asn: int, cust_dist: Dict[int, int]
    ) -> RouteSelection:
        """Build one customer-class selection.

        Reads only earlier-resolved customers from ``self.selections``
        (processing order is ascending (distance, asn), and customer
        arrivals always exceed the customer's own distance), which is
        what lets the delta engine re-run single ASes in place.
        """
        slack = self.slack_for(asn)
        best = cust_dist[asn]
        exact: List[CandidateRoute] = []
        near: Dict[str, int] = {}
        for entry in self._origin_entries.get(asn, []):
            if entry.path_length == best:
                exact.append(entry)
            delta = entry.path_length - best
            if delta <= slack:
                near[entry.site_code] = min(near.get(entry.site_code, 99), delta)
        for customer in self.graph.customers_of(asn):
            customer_dist = cust_dist.get(customer)
            if customer_dist is None:
                continue
            arrival = customer_dist + self.edge_cost(asn, customer)
            neighbor_selection = self.selections.get(customer)
            if neighbor_selection is None:
                continue
            via_site = self.import_site(neighbor_selection, asn)
            if arrival == best:
                exact.append(
                    CandidateRoute(
                        customer, via_site, arrival, RouteClass.CUSTOMER
                    )
                )
            delta = arrival - best
            if delta <= slack:
                near[via_site] = min(near.get(via_site, 99), delta)
        if not exact:
            raise RoutingError(f"AS{asn}: customer distance with no candidates")
        primary = min(
            exact, key=lambda c: self.tie_hash(asn, c.neighbor_asn, c.site_code)
        )
        if primary.neighbor_asn == _SERVICE_NEIGHBOR:
            as_path = (asn,) + (_SERVICE_NEIGHBOR,) * primary.path_length
        else:
            as_path = (asn,) + self.selections[primary.neighbor_asn].as_path
        return RouteSelection(
            asn, RouteClass.CUSTOMER, best, primary.site_code,
            tuple(exact), _near_tuple(near), as_path=as_path,
        )

    def _phase_peers(self, cust_dist: Dict[int, int]) -> None:
        """ASes without customer routes import their peers' customer routes."""
        for asn in self.internet.ases:
            if asn in self.selections:
                continue
            selection = self._peer_selection(asn, cust_dist)
            if selection is not None:
                self.selections[asn] = selection

    def _peer_selection(
        self, asn: int, cust_dist: Dict[int, int]
    ) -> Optional[RouteSelection]:
        """Build one peer-class selection (None when no peer has a route).

        Reads only customer-route holders from ``self.selections``, so
        peer selections are order-independent among themselves.
        """
        slack = self.slack_for(asn)
        best = _INF
        offers: List[Tuple[int, CandidateRoute]] = []
        for peer in self.graph.peers_of(asn):
            peer_cust = cust_dist.get(peer)
            if peer_cust is None:
                continue
            arrival = peer_cust + self.edge_cost(asn, peer)
            offers.append(
                (
                    arrival,
                    CandidateRoute(
                        peer,
                        self.import_site(self.selections[peer], asn),
                        arrival,
                        RouteClass.PEER,
                    ),
                )
            )
            best = min(best, arrival)
        if not offers:
            return None
        exact = [route for arrival, route in offers if arrival == best]
        near: Dict[str, int] = {}
        for arrival, route in offers:
            delta = arrival - best
            if delta <= slack:
                near[route.site_code] = min(near.get(route.site_code, 99), delta)
        primary = min(
            exact, key=lambda c: self.tie_hash(asn, c.neighbor_asn, c.site_code)
        )
        as_path = (asn,) + self.selections[primary.neighbor_asn].as_path
        return RouteSelection(
            asn, RouteClass.PEER, best, primary.site_code,
            tuple(exact), _near_tuple(near), as_path=as_path,
        )

    def _compute_provider_dist(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Dijkstra of best routes down the provider->customer DAG.

        Returns ``(provider_dist, export_len)``: the provider-learned
        distance of every AS without a customer/peer route, and the
        per-AS export cost used for arrivals (path length for
        customer/peer holders, descent distance below).
        """
        export_len: Dict[int, int] = {
            asn: selection.path_length for asn, selection in self.selections.items()
        }
        heap = [(length, asn) for asn, length in export_len.items()]
        heapq.heapify(heap)
        provider_dist: Dict[int, int] = {}
        while heap:
            length, asn = heapq.heappop(heap)
            if length > export_len.get(asn, _INF):
                continue
            for customer in self.graph.customers_of(asn):
                if customer in self.selections and customer not in provider_dist:
                    continue  # holds a customer/peer route; ignores provider offers
                candidate = length + self.edge_cost(customer, asn)
                if candidate < provider_dist.get(customer, _INF):
                    provider_dist[customer] = candidate
                    export_len[customer] = candidate
                    heapq.heappush(heap, (candidate, customer))
        return provider_dist, export_len

    def _resolve_provider(
        self, provider_dist: Dict[int, int], export_len: Dict[int, int]
    ) -> None:
        """Pick primaries for provider-route holders in distance order.

        Pinned provider adjacencies beat unpinned ones regardless of
        cost.  Export costs use the min-cost offer even when a pin makes
        the AS *use* a longer route — a small, documented approximation
        that keeps the descent a clean Dijkstra while preserving the
        property that matters: each AS's customers inherit the site the
        AS actually selected.
        """
        for asn in sorted(provider_dist, key=lambda a: (provider_dist[a], a)):
            self.selections[asn] = self._provider_selection(
                asn, provider_dist, export_len
            )

    def _provider_selection(
        self, asn: int, provider_dist: Dict[int, int], export_len: Dict[int, int]
    ) -> RouteSelection:
        """Build one provider-class selection.

        Reads only earlier-resolved providers (customer/peer holders or
        ASes earlier in the ascending (distance, asn) descent order)
        from ``self.selections``.
        """
        slack = self.slack_for(asn)
        offers: List[Tuple[bool, int, CandidateRoute]] = []
        for provider in self.graph.providers_of(asn):
            provider_selection = self.selections.get(provider)
            if provider_selection is None:
                # Provider has no route yet (resolves later in the
                # descent, so its offer cannot be the best anyway).
                continue
            pinned = self.is_pinned(asn, provider)
            arrival = export_len.get(provider, _INF) + self.edge_cost(asn, provider)
            if arrival >= _INF:
                continue
            offers.append(
                (
                    pinned,
                    arrival,
                    CandidateRoute(
                        provider,
                        self.import_site(provider_selection, asn),
                        arrival,
                        RouteClass.PROVIDER,
                    ),
                )
            )
        if not offers:
            raise RoutingError(f"AS{asn}: provider distance with no candidates")
        has_pin = any(pinned for pinned, _, _ in offers)
        if has_pin:
            eligible = [(arrival, route) for pinned, arrival, route in offers if pinned]
        else:
            eligible = [(arrival, route) for _, arrival, route in offers]
        best = min(arrival for arrival, _ in eligible)
        exact = [route for arrival, route in eligible if arrival == best]
        near: Dict[str, int] = {}
        for arrival, route in eligible:
            delta = arrival - best
            if delta <= slack:
                near[route.site_code] = min(near.get(route.site_code, 99), delta)
        primary = min(
            exact, key=lambda c: self.tie_hash(asn, c.neighbor_asn, c.site_code)
        )
        as_path = (asn,) + self.selections[primary.neighbor_asn].as_path
        return RouteSelection(
            asn, RouteClass.PROVIDER, best, primary.site_code,
            tuple(exact), _near_tuple(near), pinned=has_pin, as_path=as_path,
        )

    def _assign_alternates(self) -> None:
        """Give every selection an alternate site for the flip model."""
        site_codes = self.policy.site_codes
        for selection in self.selections.values():
            alternate = _alternate_for(self.internet, site_codes, selection)
            if alternate is not None:
                selection.alternate_site = alternate


# -- reads of an outcome ------------------------------------------------------

_Reference = Tuple[Dict[int, RouteSelection], Optional[_PropagationState]]
_REFERENCE: "weakref.WeakKeyDictionary[RoutingOutcome, _Reference]" = (
    weakref.WeakKeyDictionary()
)
_CATCHMENTS: "weakref.WeakKeyDictionary[RoutingOutcome, Dict[Optional[int], CatchmentMap]]" = (
    weakref.WeakKeyDictionary()
)


def outcome_from_selections(
    internet: Internet,
    policy: AnnouncementPolicy,
    selections: Dict[int, RouteSelection],
    config: RoutingConfig,
    state: Optional[_PropagationState] = None,
) -> RoutingOutcome:
    """An outcome whose table is derived from ``selections``; the reads
    here return those selections and ``state`` (None: not a delta
    baseline) rather than running the reference."""
    table = table_from_selections(as_columns(internet), policy.site_codes, selections)
    outcome = RoutingOutcome(internet, policy, table, config)
    _REFERENCE[outcome] = (selections, state)
    return outcome


def _reference(outcome: RoutingOutcome) -> _Reference:
    found = _REFERENCE.get(outcome)
    if found is None:
        propagator = _Propagator(outcome.internet, outcome.policy, outcome.config)
        found = _REFERENCE[outcome] = (propagator.run(), propagator._state)
    return found


def selections(outcome: RoutingOutcome) -> Dict[int, RouteSelection]:
    """ASN -> selected route of ``outcome`` (the reference run on first use)."""
    return _reference(outcome)[0]


def state(outcome: RoutingOutcome) -> Optional[_PropagationState]:
    """Working maps of the run behind :func:`selections`, so a
    :class:`~repro.bgp.delta.DeltaPropagator` can use ``outcome`` as a
    baseline (None for an outcome built from bare selections)."""
    return _reference(outcome)[1]


def selection_of(outcome: RoutingOutcome, asn: int) -> Optional[RouteSelection]:
    """The selected route at ``asn`` (None if the prefix never reached it)."""
    return selections(outcome).get(asn)


def reachable_fraction(outcome: RoutingOutcome) -> float:
    """Fraction of ASes that received any route (sanity metric)."""
    if not outcome.internet.ases:
        return 0.0
    return int(np.count_nonzero(outcome.table.route_class >= 0)) / len(outcome.internet.ases)


def site_of_pop(outcome: RoutingOutcome, pop: PoP) -> Optional[str]:
    """Site a given PoP egresses to (hot-potato over the near sites)."""
    index = int(outcome.pop_routes().site[pop.pop_id])
    return None if index < 0 else outcome.table.site_codes[index]


def has_block(internet: Internet, block: int) -> bool:
    """True if ``block`` is populated in ``internet``."""
    return row_of(internet.block_table()[0], block) >= 0


def pop_of_block(internet: Internet, block: int) -> PoP:
    """The PoP serving the populated ``block``."""
    blocks, _, pop_ids = internet.block_table()
    row = row_of(blocks, block)
    if row < 0:
        raise TopologyError(f"block {block} is not populated")
    return internet.pops[int(pop_ids[row])]


def site_of_block(
    outcome: RoutingOutcome, block: int, round_id: Optional[int] = None
) -> Optional[str]:
    """Site that traffic from ``block`` reaches; with ``round_id`` given,
    after that round's flip decision (paper §6.3)."""
    internet = outcome.internet
    if not has_block(internet, block):
        return None
    pop = pop_of_block(internet, block)
    base_site = site_of_pop(outcome, pop)
    if base_site is None or round_id is None:
        return base_site
    index = int(outcome.pop_routes().alternate[pop.pop_id])
    alternate = None if index < 0 else outcome.table.site_codes[index]
    asys = internet.ases[pop.asn]
    return site_for(
        internet.seed, FLIP_RATES, asys, alternate, base_site, block, round_id
    )


def participates(
    seed: int, rates: FlipModelConfig, asys: AutonomousSystem, block: int
) -> bool:
    """Whether ``block`` of flipper ``asys`` sits on a load-balanced path."""
    return asys.flipper and (
        uniform_unit(seed, _PARTICIPATE_SALT, block) < rates.flipper_block_fraction
    )


def site_for(
    seed: int, rates: FlipModelConfig, asys: AutonomousSystem, alternate: Optional[str],
    base_site: str, block: int, round_id: int,
) -> str:
    """Resolve the per-round site for ``block`` of an Internet with
    ``seed`` given its AS's alternate site (None: the AS has none)."""
    if alternate is None or alternate == base_site:
        return base_site
    if asys.flipper:
        if not participates(seed, rates, asys, block):
            return base_site
        probability = rates.flipper_flip_probability
    else:
        probability = rates.background_flip_probability
    if uniform_unit(seed, _FLIP_SALT, block, round_id) < probability:
        return alternate
    return base_site


def catchment_map(outcome: RoutingOutcome, round_id: Optional[int] = None) -> CatchmentMap:
    """Catchment of every populated block (site per block), one
    :func:`site_of_block` at a time.

    Memoised per (outcome, ``round_id``): the outcome is immutable once
    built, so repeated calls return the same :class:`CatchmentMap`
    instance (which has no mutators).
    """
    per_round = _CATCHMENTS.setdefault(outcome, {})
    cached = per_round.get(round_id)
    if cached is None:
        mapping: Dict[int, str] = {}
        for block in outcome.internet.blocks:
            site = site_of_block(outcome, block, round_id)
            if site is not None:
                mapping[block] = site
        cached = per_round[round_id] = CatchmentMap.from_mapping(
            outcome.policy.site_codes, mapping
        )
    return cached
