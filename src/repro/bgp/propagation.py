"""Gao-Rexford route propagation.

Computes, for every AS, the route it selects toward the anycast prefix
under a given :class:`AnnouncementPolicy`.  :func:`compute_lattice`
resolves a batch of policies as one array program
(:func:`repro.bgp.sweep.propagate`); :mod:`repro.bgp.reference` is the
scalar oracle of the same decision, in three phases:

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

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bgp.instability import _FLIP_SALT, _PARTICIPATE_SALT, FLIP_RATES, flip_sites
from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.sweep import PopRoutes, RouteTable, as_columns, pop_routes, propagate
from repro.errors import ConfigurationError
from repro.rng import uniform_unit_np
from repro.topology.internet import Internet


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


class RoutingOutcome:
    """Result of one propagation: a policy's propagated
    :class:`~repro.bgp.sweep.RouteTable` under its :class:`RoutingConfig`.

    Block queries read the per-PoP columns of :meth:`pop_routes`
    (:meth:`sites_of`).  The scalar reference's reads of an outcome
    (per-AS route objects, the site of one block or PoP, a
    block-by-block catchment) are functions in :mod:`repro.bgp.reference`.
    """

    def __init__(
        self,
        internet: Internet,
        policy: AnnouncementPolicy,
        table: RouteTable,
        config: RoutingConfig,
    ) -> None:
        self.internet = internet
        self.policy = policy
        self.table = table
        self.config = config
        self._pop_routes: Optional[PopRoutes] = None

    def pop_routes(self) -> PopRoutes:
        """Per-PoP site, alternate and flipper columns, gathered once."""
        return pop_routes_of([self])[0]

    def site_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-PoP base site, flip alternate (-1 = none) and flipper flag in
        ``policy.site_codes`` indexes, each ending in a sentinel entry
        (unrouted, no flips) where blocks outside the topology point."""
        pops = self.pop_routes()
        site_index = {code: i for i, code in enumerate(self.policy.site_codes)}
        # Routing-table site index -> policy site index; the trailing -1
        # is where "no site" (index -1) lands.
        remap = np.array(
            [site_index.get(code, -1) for code in self.table.site_codes] + [-1],
            dtype=np.int16,
        )
        flips = np.where(pops.alternate != pops.site, pops.alternate, -1)
        return (
            np.append(remap[pops.site], np.int16(-1)),
            np.append(remap[flips], np.int16(-1)),
            np.append(pops.flipper, False),
        )

    def sites_of(self, blocks: np.ndarray, round_id: Optional[int] = None) -> np.ndarray:
        """Site each of ``blocks`` reaches, as an int16 ``policy.site_codes``
        index (-1 = unrouted or not populated); with ``round_id``, after
        that round's flips (per-packet load balancing, paper §6.3), drawn
        from the Internet's seed."""
        blocks = np.asarray(blocks, dtype=np.int64)
        rows, populated = self.internet.join(blocks)
        base, alternate, flipper = self.site_columns()
        pops = np.where(populated, self.internet.block_table()[2][rows], base.size - 1)
        if round_id is None:
            return base[pops]
        seed, keys = self.internet.seed, blocks.astype(np.uint64)
        return flip_sites(
            base[pops], alternate[pops], flipper[pops],
            uniform_unit_np(seed, _PARTICIPATE_SALT, keys),
            uniform_unit_np(seed, _FLIP_SALT, keys, round_id),
            FLIP_RATES,
        )


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
    config: Optional[RoutingConfig] = None,
) -> Tuple[List[RoutingOutcome], int]:
    """Routes of every policy in one array propagation, in input order,
    and the number of level-synchronous sweeps it took."""
    config = config or RoutingConfig()
    lattice = propagate(internet, policies, config)
    outcomes = [
        RoutingOutcome(internet, policy, table, config)
        for policy, table in zip(policies, lattice.tables)
    ]
    return outcomes, lattice.levels


def compute_routes(
    internet: Internet,
    policy: AnnouncementPolicy,
    config: Optional[RoutingConfig] = None,
) -> RoutingOutcome:
    """Run Gao-Rexford propagation of ``policy`` over ``internet`` (a
    lattice of one)."""
    return compute_lattice(internet, [policy], config)[0][0]
