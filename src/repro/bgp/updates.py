"""Event-driven BGP update simulation.

The analytic propagator (:mod:`repro.bgp.propagation`) computes the
routing fixed point directly; this module reaches the same state the
way the real protocol does — session by session, UPDATE by UPDATE —
with Gao-Rexford export filters:

* routes learned from customers are exported to everyone;
* routes learned from peers or providers are exported to customers only.

Uses the same shared edge costs and pins as the analytic engine, so the
two are directly comparable: with pins disabled they agree exactly on
every AS's route class and cost (asserted by tests), which validates
both implementations against each other.  Beyond validation, the
simulator measures what the analytic engine cannot: *convergence cost*
— how many UPDATE messages a configuration change triggers, the thing
an operator's routers actually experience during the paper's
trial-and-error prepending experiments (§6.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import (
    RoutingConfig,
    _tie_hash,
    edge_cost,
    is_pinned,
)
from repro.bgp.route import RouteClass
from repro.errors import RoutingError
from repro.topology.internet import Internet

_SERVICE_NEIGHBOR = 0


@dataclass(frozen=True)
class Offer:
    """A route as advertised by one neighbour: where it leads, at what cost."""

    site_code: str
    cost: int


@dataclass(frozen=True)
class SimSelection:
    """An AS's converged selection in the update simulation."""

    route_class: int
    pinned: bool
    cost: int
    site_code: str
    neighbor_asn: int


@dataclass
class ConvergenceStats:
    """Protocol work done to reach the fixed point."""

    messages: int = 0
    announcements: int = 0
    withdrawals: int = 0
    selection_changes: int = 0


class UpdateOutcome:
    """Converged state of one event-driven run."""

    def __init__(
        self,
        selections: Dict[int, SimSelection],
        stats: ConvergenceStats,
    ) -> None:
        self.selections = selections
        self.stats = stats

    def selection_of(self, asn: int) -> Optional[SimSelection]:
        """The converged route at ``asn`` (None when unreachable)."""
        return self.selections.get(asn)

    def block_weighted_fractions(self, internet) -> Dict[str, float]:
        """Per-site share weighted by each AS's populated /24 count.

        AS-granular (no PoP splitting), which is what an UPDATE-level
        view can know; used to compare traffic-engineering mechanisms.
        """
        counts: Dict[str, int] = {}
        total = 0
        for asn, selection in self.selections.items():
            weight = len(internet.blocks_of_asn(asn))
            if weight:
                counts[selection.site_code] = (
                    counts.get(selection.site_code, 0) + weight
                )
                total += weight
        return {
            site: count / total for site, count in counts.items()
        } if total else {}


class BgpUpdateSimulator:
    """Session-level simulation of one prefix's propagation."""

    def __init__(
        self,
        internet: Internet,
        policy: AnnouncementPolicy,
        config: Optional[RoutingConfig] = None,
    ) -> None:
        self.internet = internet
        self.policy = policy
        self.config = config or RoutingConfig()
        self._seed = internet.seed
        graph = internet.graph
        # Static per-AS neighbour tables (importer's view).
        self._neighbors: Dict[int, Dict[int, Tuple[int, bool, int]]] = {}
        for asn in internet.ases:
            table: Dict[int, Tuple[int, bool, int]] = {}
            for customer in graph.customers_of(asn):
                table[customer] = (
                    RouteClass.CUSTOMER,
                    False,
                    edge_cost(self._seed, self.config, asn, customer),
                )
            for peer in graph.peers_of(asn):
                table[peer] = (
                    RouteClass.PEER,
                    False,
                    edge_cost(self._seed, self.config, asn, peer),
                )
            for provider in graph.providers_of(asn):
                table[provider] = (
                    RouteClass.PROVIDER,
                    is_pinned(self._seed, self.config, asn, provider),
                    edge_cost(self._seed, self.config, asn, provider),
                )
            self._neighbors[asn] = table

    @staticmethod
    def _rank(
        route_class: int, pinned: bool, cost: int, tie: int
    ) -> Tuple[int, int, int, int]:
        # Pinned provider routes beat unpinned ones regardless of cost
        # (matching the analytic engine's pin semantics).
        return (route_class, 0 if pinned else 1, cost, tie)

    def run(
        self,
        message_limit: int = 5_000_000,
        queue_discipline: str = "fifo",
    ) -> UpdateOutcome:
        """Inject the announcements and process updates to convergence.

        ``queue_discipline`` chooses the message processing order
        ("fifo" or "lifo").  Gao-Rexford policies have no dispute wheel,
        so the converged state is identical either way — a safety
        property the tests assert; only the message count differs.
        """
        if queue_discipline not in ("fifo", "lifo"):
            raise RoutingError(f"unknown queue discipline {queue_discipline!r}")
        rib_in: Dict[int, Dict[int, Offer]] = {
            asn: {} for asn in self.internet.ases
        }
        selections: Dict[int, Optional[SimSelection]] = {
            asn: None for asn in self.internet.ases
        }
        exported_to: Dict[int, set] = {asn: set() for asn in self.internet.ases}
        queue: Deque[Tuple[int, int, Optional[Offer]]] = deque()
        stats = ConvergenceStats()

        for announcement in self.policy.announcements:
            if announcement.upstream_asn not in self.internet.ases:
                raise RoutingError(
                    f"upstream AS{announcement.upstream_asn} does not exist"
                )
            queue.append(
                (
                    announcement.upstream_asn,
                    _SERVICE_NEIGHBOR,
                    Offer(announcement.site_code, announcement.effective_length),
                )
            )

        def decide(asn: int) -> Optional[SimSelection]:
            best: Optional[Tuple[Tuple[int, int, int, int], SimSelection]] = None
            for neighbor, offer in rib_in[asn].items():
                if neighbor == _SERVICE_NEIGHBOR:
                    route_class, pinned, cost = RouteClass.CUSTOMER, False, offer.cost
                else:
                    route_class, pinned, link_cost = self._neighbors[asn][neighbor]
                    cost = offer.cost + link_cost
                rank = self._rank(
                    route_class, pinned, cost,
                    _tie_hash(asn, neighbor, offer.site_code),
                )
                if best is None or rank < best[0]:
                    best = (
                        rank,
                        SimSelection(route_class, pinned, cost, offer.site_code,
                                     neighbor),
                    )
            return best[1] if best is not None else None

        no_export = {
            (a.upstream_asn, a.site_code): set(a.no_export_to)
            for a in self.policy.announcements
            if a.no_export_to
        }

        def eligible_importers(asn: int, selection: SimSelection):
            graph = self.internet.graph
            blocked = (
                no_export.get((asn, selection.site_code), set())
                if selection.neighbor_asn == _SERVICE_NEIGHBOR
                else set()
            )
            if selection.route_class == RouteClass.CUSTOMER:
                for neighbor in self._neighbors[asn]:
                    if neighbor != selection.neighbor_asn and neighbor not in blocked:
                        yield neighbor
            else:
                for customer in graph.customers_of(asn):
                    if customer != selection.neighbor_asn and customer not in blocked:
                        yield customer

        while queue:
            if stats.messages >= message_limit:
                raise RoutingError(
                    f"BGP update simulation exceeded {message_limit} messages"
                )
            if queue_discipline == "fifo":
                importer, exporter, offer = queue.popleft()
            else:
                importer, exporter, offer = queue.pop()
            stats.messages += 1
            if offer is None:
                stats.withdrawals += 1
                rib_in[importer].pop(exporter, None)
            else:
                stats.announcements += 1
                rib_in[importer][exporter] = offer
            new_selection = decide(importer)
            if new_selection == selections[importer]:
                continue
            selections[importer] = new_selection
            stats.selection_changes += 1
            previously = exported_to[importer]
            if new_selection is None:
                # Sorted drain: set iteration order must not decide the
                # update-queue order (it would vary run-to-run).
                for neighbor in sorted(previously):
                    queue.append((neighbor, importer, None))
                exported_to[importer] = set()
                continue
            now = set(eligible_importers(importer, new_selection))
            for neighbor in sorted(previously - now):
                queue.append((neighbor, importer, None))
            outgoing = Offer(new_selection.site_code, new_selection.cost)
            for neighbor in sorted(now):
                queue.append((neighbor, importer, outgoing))
            exported_to[importer] = now

        converged = {
            asn: selection
            for asn, selection in selections.items()
            if selection is not None
        }
        return UpdateOutcome(converged, stats)
