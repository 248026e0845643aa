"""Incremental (delta) route propagation.

Scenario sweeps — prepend ladders (paper §6.1), site-withdrawal
what-ifs, placement searches — evaluate many announcement policies that
differ from a baseline at only a handful of sites.  Re-running the full
Gao-Rexford propagation for each is wasteful: the expensive part is
building per-AS :class:`RouteSelection` objects (candidate tuples,
tie-hashes, near-route maps), and most of them cannot change when one
site's prepend moves.

:class:`DeltaPropagator` recomputes an outcome against a baseline in
three steps per phase:

1. Re-run the *distance* Dijkstras in full.  They are integer-only and
   an order of magnitude cheaper than selection building; having exact
   new distances makes the change cone precise instead of guessed.
2. Diff the new distances (and origin entries / export lengths) against
   the baseline's retained :class:`_PropagationState` to seed a dirty
   set: every AS whose distance changed, plus all of its neighbours
   (their processing *order* relative to the changed AS may have moved,
   which can flip which offers they see).
3. Walk the phase's resolution order.  Clean ASes splice the baseline's
   selection object through unchanged (structural sharing); dirty ASes
   rebuild their selection, and if the rebuilt selection differs from
   the baseline's the AS's neighbours are marked dirty too — consumers
   always resolve later in phase order, so the marks are seen in time.

Over-marking only costs recomputation; the bit-equality invariant (the
delta outcome's selections are field-identical to a scratch
``compute_routes`` run under the same config) is enforced by the
equivalence suite in ``tests/test_bgp_delta.py``.

Baseline selection objects are never mutated: when a spliced selection
needs a different alternate site (possible only when the announcing
site list changed), it is copied with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set

from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import RoutingOutcome
from repro.bgp.reference import (
    RouteSelection,
    _alternate_for,
    _PropagationState,
    _Propagator,
    outcome_from_selections,
    selections as reference_selections,
    state as reference_state,
)
from repro.bgp.route import RouteClass
from repro.errors import ConfigurationError


def _selection_fields(selection: RouteSelection) -> tuple:
    """Identity of a selection, excluding the later-assigned alternate."""
    return (
        selection.asn,
        selection.route_class,
        selection.path_length,
        selection.primary_site,
        selection.candidates,
        selection.near_routes,
        selection.pinned,
        selection.as_path,
    )


def _changed_keys(new: Dict[int, object], old: Dict[int, object]) -> Set[int]:
    """Keys present in either map whose values differ (missing != any)."""
    changed = {key for key, value in new.items() if old.get(key) != value}
    changed.update(key for key in old if key not in new)
    return changed


@dataclass
class DeltaStats:
    """How much work one delta propagation actually did."""

    total: int = 0  #: ASes holding a route in the new outcome
    rebuilt: int = 0  #: selections recomputed from scratch
    spliced: int = 0  #: baseline selection objects reused as-is

    @property
    def reuse_fraction(self) -> float:
        """Share of selections spliced through from the baseline."""
        return self.spliced / self.total if self.total else 0.0


class DeltaPropagator:
    """Recompute routing outcomes incrementally against a baseline.

    The baseline must retain its propagation state (every outcome built
    by :func:`~repro.bgp.propagation.compute_routes` does); the delta
    run reuses the baseline's :class:`RoutingConfig`, flip model and
    edge-cost cache, so results are comparable by construction.
    """

    def __init__(self, baseline: RoutingOutcome) -> None:
        if reference_state(baseline) is None:
            raise ConfigurationError(
                "baseline outcome lacks propagation state; it was not built "
                "by compute_routes"
            )
        self.baseline = baseline
        self.stats = DeltaStats()

    def propagate(self, policy: AnnouncementPolicy) -> RoutingOutcome:
        """Routes for ``policy``, bit-identical to a scratch propagation."""
        baseline = self.baseline
        base_state = reference_state(baseline)
        assert base_state is not None  # checked in __init__
        internet = baseline.internet
        graph = internet.graph
        base_selections = reference_selections(baseline)
        stats = DeltaStats()

        propagator = _Propagator(
            internet, policy, base_state.config, caches=base_state.caches
        )
        selections = propagator.selections

        # Phase-specific dirty sets: each phase reads a different
        # neighbour class, so a changed AS only taints the consumers
        # that actually import from it in that phase.  Consumers always
        # resolve later than their inputs (providers later in the
        # ascending-distance customer loop, peers in phase 2, customers
        # in the descent), so in-loop marks are seen in time.
        dirty_customer: Set[int] = set()
        dirty_peer: Set[int] = set()
        dirty_provider: Set[int] = set()

        # -- phase 1: customer routes up the provider DAG ------------------
        cust_dist = propagator._phase_up()
        dirty_customer |= _changed_keys(
            propagator._origin_entries, base_state.origin_entries
        )
        changed_dist = _changed_keys(cust_dist, base_state.cust_dist)
        dirty_customer |= changed_dist
        for asn in changed_dist:
            # The changed AS's arrival cost (and its position in the
            # resolution order, hence its visibility) changed for every
            # AS that imports from it: providers in this phase, peers
            # in the next.
            dirty_customer.update(graph.providers_of(asn))
            dirty_peer.update(graph.peers_of(asn))

        for asn in sorted(cust_dist, key=lambda a: (cust_dist[a], a)):
            base_sel = base_selections.get(asn)
            if (
                asn not in dirty_customer
                and base_sel is not None
                and base_sel.route_class == RouteClass.CUSTOMER
            ):
                selections[asn] = base_sel
                stats.spliced += 1
                continue
            rebuilt = propagator._customer_selection(asn, cust_dist)
            stats.rebuilt += 1
            if base_sel is not None and _selection_fields(
                rebuilt
            ) == _selection_fields(base_sel):
                selections[asn] = base_sel  # keep the shared object
                continue
            selections[asn] = rebuilt
            dirty_customer.update(graph.providers_of(asn))
            dirty_peer.update(graph.peers_of(asn))
            dirty_provider.update(graph.customers_of(asn))

        # -- phase 2: peer import ------------------------------------------
        for asn in internet.ases:
            if asn in selections:
                continue
            base_sel = base_selections.get(asn)
            base_is_peer = (
                base_sel is not None and base_sel.route_class == RouteClass.PEER
            )
            if asn not in dirty_peer:
                if base_is_peer:
                    selections[asn] = base_sel
                    stats.spliced += 1
                continue
            rebuilt = propagator._peer_selection(asn, cust_dist)
            if rebuilt is None:
                if base_is_peer:
                    # Lost its peer route; it falls to the provider
                    # descent and its old customers must re-look.
                    dirty_provider.update(graph.customers_of(asn))
                continue
            stats.rebuilt += 1
            if base_is_peer and _selection_fields(rebuilt) == _selection_fields(
                base_sel
            ):
                selections[asn] = base_sel
                continue
            selections[asn] = rebuilt
            dirty_provider.update(graph.customers_of(asn))

        # -- phase 3: descent down the provider DAG ------------------------
        provider_dist, export_len = propagator._compute_provider_dist()
        changed_pd = _changed_keys(provider_dist, base_state.provider_dist)
        dirty_provider |= changed_pd
        for asn in changed_pd:
            # Entering/leaving the descent (or moving within it) changes
            # which customers can see this AS's offer at their turn.
            dirty_provider.update(graph.customers_of(asn))
        for asn in _changed_keys(export_len, base_state.export_len):
            # Export length feeds every customer's arrival cost.
            dirty_provider.update(graph.customers_of(asn))

        for asn in sorted(provider_dist, key=lambda a: (provider_dist[a], a)):
            base_sel = base_selections.get(asn)
            if (
                asn not in dirty_provider
                and base_sel is not None
                and base_sel.route_class == RouteClass.PROVIDER
            ):
                selections[asn] = base_sel
                stats.spliced += 1
                continue
            rebuilt = propagator._provider_selection(asn, provider_dist, export_len)
            stats.rebuilt += 1
            if (
                base_sel is not None
                and base_sel.route_class == RouteClass.PROVIDER
                and _selection_fields(rebuilt) == _selection_fields(base_sel)
            ):
                selections[asn] = base_sel
                continue
            selections[asn] = rebuilt
            dirty_provider.update(graph.customers_of(asn))

        # -- alternates ----------------------------------------------------
        site_codes = policy.site_codes
        same_sites = site_codes == baseline.policy.site_codes
        for asn, selection in selections.items():
            if selection is base_selections.get(asn):
                if same_sites:
                    continue  # pool and flipper fallback both unchanged
                expected = _alternate_for(internet, site_codes, selection)
                if expected != selection.alternate_site:
                    selections[asn] = replace(selection, alternate_site=expected)
            else:
                alternate = _alternate_for(internet, site_codes, selection)
                if alternate is not None:
                    selection.alternate_site = alternate

        stats.total = len(selections)
        self.stats = stats
        state = _PropagationState(
            config=base_state.config,
            cust_dist=cust_dist,
            provider_dist=provider_dist,
            export_len=export_len,
            origin_entries=propagator._origin_entries,
            caches=propagator._caches,
        )
        return outcome_from_selections(
            internet, policy, selections, base_state.config, state
        )


def delta_routes(
    baseline: RoutingOutcome, policy: AnnouncementPolicy
) -> RoutingOutcome:
    """One-shot incremental propagation of ``policy`` against ``baseline``."""
    return DeltaPropagator(baseline).propagate(policy)
