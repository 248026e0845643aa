"""Gao-Rexford route propagation.

Computes, for every AS, the route it selects toward the anycast prefix
under a given :class:`AnnouncementPolicy`, in three phases:

1. **Up**: customer-learned routes climb the customer->provider DAG
   (Dijkstra on routing cost — prepending inflates the initial cost at
   each site's upstream).
2. **Across**: ASes holding customer routes export them to peers.
3. **Down**: every AS exports its best route to its customers; routes
   descend the provider->customer DAG.

Selection at each AS: best class (customer > peer > provider), then
lowest routing cost, then a deterministic pseudo-random tie-break (real
BGP ties break on router ids, which are arbitrary from our viewpoint;
hashing avoids the systematic low-ASN bias of a lexicographic rule).

Three realism knobs (see :class:`RoutingConfig`):

* **edge jitter** — each adjacency carries a deterministic extra cost
  of 0-2 on top of the one AS hop, modelling MEDs/intra-AS policy, so
  path-cost differences between two anycast sites spread over several
  values and AS-path prepending (paper §6.1) shifts catchments
  *gradually* rather than all at once;
* **pinned providers** — a fraction of customer->provider adjacencies
  are pinned by local policy: the customer prefers that provider for
  this prefix regardless of path length, modelling the ASes the paper
  observes "that choose to ignore prepending";
* **PoP slack** — multi-PoP ASes let each PoP pick independently among
  routes within ``pop_slack`` of the best (hot-potato routing), which
  is what divides large ASes across catchments (paper §6.2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anycast.catchment import CatchmentMap
from repro.bgp.instability import FlipModel
from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.route import CandidateRoute, RouteClass
from repro.bgp.sweep import (
    DRIFT_SALT,
    EDGE_SALT,
    PIN_SALT,
    PopRoutes,
    RouteTable,
    as_columns,
    pop_routes,
    propagate,
    site_hash,
    table_from_selections,
)
from repro.errors import ConfigurationError, RoutingError
from repro.rng import mix64, uniform_unit
from repro.topology.asys import PoP
from repro.topology.internet import Internet

_SERVICE_NEIGHBOR = 0  # sentinel neighbour ASN for routes heard from the service
_INF = 1 << 30


@dataclass(frozen=True)
class RoutingConfig:
    """Knobs controlling routing realism (see module docstring)."""

    jitter_weights: Tuple[float, ...] = (0.70, 0.20, 0.10)
    pin_probability: float = 0.10
    pop_slack: int = 1
    era: int = 0
    era_drift_probability: float = 0.20

    def __post_init__(self) -> None:
        if abs(sum(self.jitter_weights) - 1.0) > 1e-9:
            raise ConfigurationError("jitter_weights must sum to 1")
        if not 0.0 <= self.pin_probability <= 1.0:
            raise ConfigurationError("pin_probability must be in [0, 1]")
        if self.pop_slack < 0:
            raise ConfigurationError("pop_slack must be >= 0")
        if not 0.0 <= self.era_drift_probability <= 1.0:
            raise ConfigurationError("era_drift_probability must be in [0, 1]")


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
    the analytic propagator and the event-driven update simulator use
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


class RoutingOutcome:
    """Result of one propagation: per-AS routes and catchment queries.

    Two constructions share one interface.  :func:`compute_routes` and
    :func:`compute_lattice` pass a propagated
    :class:`~repro.bgp.sweep.RouteTable` (``table=`` with its
    ``config=``); ``selections`` and ``state`` come from one run of the
    scalar reference on first use (RIB dumps, validation, a delta
    baseline — none of them on the scan path).  Delta propagation and
    tests pass a ``selections`` dict; :attr:`table` is then derived from
    it in one pass.  Either way PoP and block queries read the per-PoP
    columns of :meth:`pop_routes`.
    """

    def __init__(
        self,
        internet: Internet,
        policy: AnnouncementPolicy,
        selections: Optional[Dict[int, RouteSelection]],
        flip_model: FlipModel,
        state: Optional[_PropagationState] = None,
        table: Optional[RouteTable] = None,
        config: Optional[RoutingConfig] = None,
    ) -> None:
        if selections is None and (table is None or config is None):
            raise ConfigurationError(
                "a routing outcome needs selections or a propagated table and its config"
            )
        self.internet = internet
        self.policy = policy
        self.flip_model = flip_model
        self._selections = selections
        self._state = state
        self._table = table
        self._config = config
        self._pop_routes: Optional[PopRoutes] = None
        self._catchment_cache: Dict[Optional[int], CatchmentMap] = {}

    @property
    def selections(self) -> Dict[int, RouteSelection]:
        """ASN -> selected route (the scalar reference run on first use)."""
        if self._selections is None:
            self._run_reference()
        return self._selections

    @property
    def state(self) -> Optional[_PropagationState]:
        """Propagation working maps, so DeltaPropagator can use this
        outcome as a baseline (from the same run as ``selections``;
        None for an outcome built from bare selections)."""
        if self._state is None and self._config is not None:
            self._run_reference()
        return self._state

    def _run_reference(self) -> None:
        propagator = _Propagator(self.internet, self.policy, self._config)
        self._selections = propagator.run()
        self._state = propagator._state

    @property
    def table(self) -> RouteTable:
        """Per-AS route columns (derived from the selections on first use)."""
        if self._table is None:
            self._table = table_from_selections(
                as_columns(self.internet), self.policy.site_codes, self._selections
            )
        return self._table

    def pop_routes(self) -> PopRoutes:
        """Per-PoP site, alternate and flipper columns, gathered once."""
        return pop_routes_of([self])[0]

    def selection_of(self, asn: int) -> Optional[RouteSelection]:
        """The selected route at ``asn`` (None if the prefix never reached it)."""
        return self.selections.get(asn)

    def _site_code(self, index: int) -> Optional[str]:
        return None if index < 0 else self.table.site_codes[index]

    def site_of_pop(self, pop: PoP) -> Optional[str]:
        """Site a given PoP egresses to (hot-potato over the near sites)."""
        return self._site_code(int(self.pop_routes().site[pop.pop_id]))

    def site_of_block(self, block: int, round_id: Optional[int] = None) -> Optional[str]:
        """Site that traffic from ``block`` reaches.

        With ``round_id`` given, flipper ASes may divert individual
        blocks to their alternate route for that round (per-packet load
        balancing, paper §6.3).
        """
        if not self.internet.has_block(block):
            return None
        pop = self.internet.pop_of_block(block)
        base_site = self.site_of_pop(pop)
        if base_site is None or round_id is None:
            return base_site
        alternate = self._site_code(int(self.pop_routes().alternate[pop.pop_id]))
        asys = self.internet.ases[pop.asn]
        return self.flip_model.site_for(asys, alternate, base_site, block, round_id)

    def catchment_map(self, round_id: Optional[int] = None) -> CatchmentMap:
        """Catchment of every populated block (site per block).

        Memoised per ``round_id``: the outcome is immutable once built,
        so the block->site dict is derived at most once per round and
        repeated calls return the same :class:`CatchmentMap` instance
        (which has no mutators).
        """
        cached = self._catchment_cache.get(round_id)
        if cached is not None:
            return cached
        mapping: Dict[int, str] = {}
        for block in self.internet.blocks:
            site = self.site_of_block(block, round_id)
            if site is not None:
                mapping[block] = site
        result = CatchmentMap(self.policy.site_codes, mapping)
        self._catchment_cache[round_id] = result
        return result

    def reachable_fraction(self) -> float:
        """Fraction of ASes that received any route (sanity metric)."""
        if not self.internet.ases:
            return 0.0
        return int(np.count_nonzero(self.table.route_class >= 0)) / len(self.internet.ases)


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


def pop_routes_of(outcomes: Sequence[RoutingOutcome]) -> List[PopRoutes]:
    """Per-PoP routes of every outcome over one Internet, memoised on each;
    the ones not gathered yet share one stacked weighted pick."""
    missing = [outcome for outcome in outcomes if outcome._pop_routes is None]
    if missing:
        internet = missing[0].internet
        if any(outcome.internet is not internet for outcome in missing):
            raise ConfigurationError("pop routes gather outcomes of one Internet")
        gathered = pop_routes(as_columns(internet), [outcome.table for outcome in missing])
        for outcome, pops in zip(missing, gathered):
            outcome._pop_routes = pops
    return [outcome._pop_routes for outcome in outcomes]


def compute_lattice(
    internet: Internet,
    policies: Sequence[AnnouncementPolicy],
    flip_model: Optional[FlipModel] = None,
    config: Optional[RoutingConfig] = None,
) -> Tuple[List[RoutingOutcome], int]:
    """Routes of every policy in one array propagation, in input order,
    and the number of level-synchronous sweeps it took."""
    config = config or RoutingConfig()
    flip_model = flip_model or FlipModel(internet.seed)
    lattice = propagate(internet, policies, config)
    outcomes = [
        RoutingOutcome(internet, policy, None, flip_model, table=table, config=config)
        for policy, table in zip(policies, lattice.tables)
    ]
    return outcomes, lattice.levels


def compute_routes(
    internet: Internet,
    policy: AnnouncementPolicy,
    flip_model: Optional[FlipModel] = None,
    config: Optional[RoutingConfig] = None,
) -> RoutingOutcome:
    """Run Gao-Rexford propagation of ``policy`` over ``internet`` (a
    lattice of one)."""
    return compute_lattice(internet, [policy], flip_model, config)[0][0]
