"""Experiment drivers: prepending sweeps, site-failure studies and
24-hour stability series.

All drivers resolve routing through a :class:`RoutingCache`.  A sweep
and a failure study are what-if lattices, like the playbook planner's:
their configs route as one batch
(:meth:`RoutingCache.get_or_compute_many`) and scan as one lattice
(:func:`~repro.core.fastscan.scan_lattice`), each config at its own
round id.  A stability series is one routing state over many rounds on
the deployment's columnar engine (:meth:`Verfploeter.engine_for`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.anycast.catchment import UNKNOWN_SITE, CatchmentMap
from repro.bgp.cache import RoutingCache, default_routing_cache
from repro.bgp.policy import AnnouncementPolicy
from repro.analysis.results import (
    PrependMeasurement,
    StabilityRound,
    StabilitySeries,
    build_stability_series,
)
from repro.core.fastscan import scan_lattice
from repro.core.verfploeter import Verfploeter

if TYPE_CHECKING:
    from repro.atlas.platform import AtlasPlatform
    from repro.load.estimator import LoadEstimate

#: The paper's Figure 5/6 x-axis for B-Root.
BROOT_PREPEND_CONFIGS: Tuple[Tuple[str, Mapping[str, int]], ...] = (
    ("+1 LAX", {"LAX": 1}),
    ("equal", {}),
    ("+1 MIA", {"MIA": 1}),
    ("+2 MIA", {"MIA": 2}),
    ("+3 MIA", {"MIA": 3}),
)


def prepend_sweep(
    verfploeter: Verfploeter,
    atlas: AtlasPlatform,
    configs: Sequence[Tuple[str, Mapping[str, int]]] = BROOT_PREPEND_CONFIGS,
    cache: Optional[RoutingCache] = None,
) -> List[PrependMeasurement]:
    """Measure each prepending configuration with Atlas and Verfploeter.

    The paper measures each configuration on a different day against a
    test prefix (§6.1); we measure each under its own routing state, at
    the config's index as round and Atlas measurement id.  The configs
    route as one batch through ``cache`` and scan as one lattice.
    """
    service = verfploeter.service
    routing_cache = cache if cache is not None else default_routing_cache()
    with verfploeter.observer.tracer.span("experiment.prepend_sweep", configs=len(configs)):
        policies = [service.policy(prepends=prepends) for _, prepends in configs]
        routings = routing_cache.get_or_compute_many(verfploeter.internet, policies)
        catchments = scan_lattice(verfploeter, routings, range(len(configs)))
        return [
            PrependMeasurement(
                label=label,
                policy=policy,
                atlas_fractions=atlas.measure(routing, service, measurement_id=index).fractions(),
                verfploeter_fractions=catchment.fractions(),
                catchment=catchment,
            )
            for index, ((label, _), policy, routing, catchment) in enumerate(
                zip(configs, policies, routings, catchments)
            )
        ]


def run_stability_series(
    verfploeter: Verfploeter,
    policy: Optional[AnnouncementPolicy] = None,
    rounds: int = 96,
    interval_seconds: float = 900.0,
    cache: Optional[RoutingCache] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
) -> StabilitySeries:
    """Run the paper's 24-hour stability experiment (§6.3).

    96 rounds at 15-minute spacing by default; returns per-round
    stable/flipped/to-NR/from-NR counts and per-block flip totals.
    The rounds run on the deployment's columnar engine (one precompute
    for the whole series); ``shards``/``workers`` fan it over the block
    universe in worker processes via
    :func:`repro.core.sharding.run_sharded_series` (bit-identical
    again).  The routing state is resolved through ``cache``, so a
    series over an already-studied policy skips propagation entirely.
    """
    observer = verfploeter.observer
    routing_cache = cache if cache is not None else default_routing_cache()
    sharded = shards is not None or workers is not None
    with observer.tracer.span(
        "experiment.stability_series", rounds=rounds, sharded=sharded
    ):
        routing = routing_cache.get_or_compute(
            verfploeter.internet, policy or verfploeter.service.default_policy()
        )
        if sharded:
            from repro.core.sharding import run_sharded_series

            scans = run_sharded_series(
                verfploeter.engine_for(routing),
                rounds=rounds,
                shards=shards,
                workers=workers,
                interval_seconds=interval_seconds,
                dataset_prefix="stability",
            )
        else:
            scans = verfploeter.run_series(
                routing=routing,
                rounds=rounds,
                interval_seconds=interval_seconds,
                dataset_prefix="stability",
            )
        return build_stability_series(scans)


@dataclass(frozen=True)
class SiteFailureResult:
    """Load redistribution when one site is withdrawn.

    This is the DDoS/maintenance planning question behind the paper's
    load-balancing motivation (§6.1): if a site stops announcing, where
    does its traffic land, and does any surviving site overload?
    """

    withdrawn_site: str
    baseline: Dict[str, float]
    after: Dict[str, float]
    catchment: CatchmentMap
    peak_baseline: Dict[str, float]
    peak_after: Dict[str, float]

    def overload_factor(self, site_code: str) -> float:
        """Load multiple at ``site_code`` after the withdrawal.

        A **daily**-load ratio: useful for "how many times its normal
        traffic does the survivor now carry", not a capacity check —
        capacity questions compare :attr:`peak_after`'s peak hourly loads
        (:func:`repro.load.weighting.capacity_violations`).
        """
        before = self.baseline.get(site_code, 0.0)
        if before <= 0:
            return float("inf") if self.after.get(site_code, 0.0) > 0 else 1.0
        return self.after.get(site_code, 0.0) / before

    def worst_overload(self) -> Tuple[str, float]:
        """The surviving site with the highest load multiple.

        Sites that carried no load before the withdrawal are excluded
        when any loaded survivor exists — going from zero to a trickle
        is not an overload in the capacity-planning sense.
        """
        survivors = [
            code
            for code in self.baseline
            if code != self.withdrawn_site and code != UNKNOWN_SITE
        ]
        loaded = [code for code in survivors if self.baseline[code] > 0]
        candidates = loaded or survivors
        worst = max(candidates, key=self.overload_factor)
        return worst, self.overload_factor(worst)


def site_failure_study(
    verfploeter: Verfploeter,
    estimate: LoadEstimate,
    sites: Optional[Sequence[str]] = None,
    cache: Optional[RoutingCache] = None,
) -> List[SiteFailureResult]:
    """Withdraw each site in turn and predict the load redistribution.

    For every site: announce the service without it, measure the new
    catchment with Verfploeter, weight by historical load, and compare
    per-site daily load against the all-sites baseline.  The baseline
    and every withdrawal route as one batch through ``cache``, scan as
    one lattice (the baseline at round 0, the ``i``-th withdrawal at
    round ``100 + i``) and weigh in one traffic join.
    """
    from repro.load.weighting import weight_catchments

    service = verfploeter.service
    observer = verfploeter.observer
    routing_cache = cache if cache is not None else default_routing_cache()
    study_sites = list(sites or service.site_codes)
    with observer.tracer.span("experiment.site_failure"):
        policies = [service.default_policy()] + [
            service.policy(withdrawn=[code]) for code in study_sites
        ]
        routings = routing_cache.get_or_compute_many(verfploeter.internet, policies)
        catchments = scan_lattice(verfploeter, routings, [0, *range(100, 100 + len(study_sites))])
        loads = weight_catchments(catchments, estimate, observer=observer)
    (baseline, peak_baseline), *tables = [load.tables(service.site_codes) for load in loads]
    return [
        SiteFailureResult(code, baseline, after, catchment, peak_baseline, peak_after)
        for code, catchment, (after, peak_after) in zip(study_sites, catchments[1:], tables)
    ]
