"""Experiment drivers: prepending sweeps and 24-hour stability series.

All drivers evaluate routing through a :class:`RoutingCache`: the first
configuration propagates in full, every later one is an incremental
delta against it, and repeated configurations are dictionary hits.
Results are bit-identical to scratch propagation either way.  Every
scan runs on the deployment's columnar engine
(:meth:`Verfploeter.engine_for`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.atlas.platform import AtlasPlatform
from repro.bgp.cache import RoutingCache, default_routing_cache
from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import RoutingConfig
from repro.analysis.results import (
    PrependMeasurement,
    StabilityRound,
    StabilitySeries,
    build_stability_series,
)
from repro.collector.results import ScanResult
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.weighting import (
    UNKNOWN,
    capacity_violations,
    weight_catchment,
)

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
    test prefix (§6.1); we measure each under its own routing state.
    Routing states come from ``cache``: the equal-announcement baseline
    is seeded first and each prepend variant propagates as a delta
    against it.
    """
    service = verfploeter.service
    internet = verfploeter.internet
    observer = verfploeter.observer
    routing_cache = cache if cache is not None else default_routing_cache()
    with observer.tracer.span(
        "experiment.prepend_sweep", configs=len(configs)
    ):
        # Seed the unprepended baseline first so every variant finds a
        # delta baseline instead of propagating from scratch.
        routing_cache.get_or_compute(internet, service.default_policy())

        def measure_config(index: int) -> PrependMeasurement:
            label, prepends = configs[index]
            with observer.tracer.span("prepend.config", label=label):
                policy = service.policy(prepends=prepends)
                routing = routing_cache.get_or_compute(internet, policy)
                scan = verfploeter.run_scan(
                    routing=routing,
                    round_id=index,
                    dataset_id=f"prepend-{label.replace(' ', '')}",
                )
                atlas_measurement = atlas.measure(
                    routing, service, measurement_id=index
                )
            return PrependMeasurement(
                label=label,
                policy=policy,
                atlas_fractions=atlas_measurement.fractions(),
                verfploeter_fractions=scan.catchment.fractions(),
                scan=scan,
            )

        return [measure_config(index) for index in range(len(configs))]


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
    scan: ScanResult
    peak_baseline: Dict[str, float] = field(default_factory=dict)
    peak_after: Dict[str, float] = field(default_factory=dict)

    def overloaded_sites(self, capacities: Mapping[str, float]) -> List[str]:
        """Survivors pushed past capacity by this withdrawal.

        Uses the repo's single pinned capacity definition
        (:func:`repro.load.weighting.capacity_violations`): **peak
        hourly** load compared strictly against capacity, with the
        withdrawn site excluded — identical semantics to the playbook
        planner (:mod:`repro.core.playbook`), so a withdrawal that this
        study calls safe is exactly one the planner would rank
        violation-free.
        """
        return capacity_violations(
            self.peak_after, dict(capacities), exclude=(self.withdrawn_site,)
        )

    def overload_factor(self, site_code: str) -> float:
        """Load multiple at ``site_code`` after the withdrawal.

        A **daily**-load ratio: useful for "how many times its normal
        traffic does the survivor now carry", not a capacity check —
        capacity questions go through :meth:`overloaded_sites`, which
        compares peak hourly loads.
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
            if code != self.withdrawn_site and code != UNKNOWN
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
    per-site daily load against the all-sites baseline.  Each
    withdrawal's routing is a delta against the all-sites baseline.
    """
    service = verfploeter.service
    internet = verfploeter.internet
    observer = verfploeter.observer
    routing_cache = cache if cache is not None else default_routing_cache()
    with observer.tracer.span("experiment.site_failure"):
        baseline_routing = routing_cache.get_or_compute(
            internet, service.default_policy()
        )
        baseline_scan = verfploeter.run_scan(
            routing=baseline_routing, dataset_id="failure-baseline"
        )
        baseline_load = weight_catchment(
            baseline_scan.catchment, estimate, observer=observer
        )
        baseline = {
            code: baseline_load.daily_of(code)
            for code in (*service.site_codes, UNKNOWN)
        }
        peak_baseline = {
            code: baseline_load.peak_of(code) for code in service.site_codes
        }
        study_sites = list(sites or service.site_codes)

        def withdraw_site(index: int) -> SiteFailureResult:
            site_code = study_sites[index]
            with observer.tracer.span("failure.withdrawal", site=site_code):
                policy = service.policy(withdrawn=[site_code])
                routing = routing_cache.get_or_compute(internet, policy)
                scan = verfploeter.run_scan(
                    routing=routing,
                    round_id=100 + index,
                    dataset_id=f"failure-{site_code}",
                )
                after_load = weight_catchment(
                    scan.catchment, estimate, observer=observer
                )
            after = {
                code: after_load.daily_of(code)
                for code in (*service.site_codes, UNKNOWN)
            }
            peak_after = {
                code: after_load.peak_of(code)
                for code in service.site_codes
            }
            return SiteFailureResult(
                withdrawn_site=site_code,
                baseline=baseline,
                after=after,
                scan=scan,
                peak_baseline=peak_baseline,
                peak_after=peak_after,
            )

        return [withdraw_site(index) for index in range(len(study_sites))]


@dataclass(frozen=True)
class DecayPoint:
    """Prediction error after ``era`` units of routing/load drift."""

    era: int
    predicted: Dict[str, float]
    actual: Dict[str, float]

    def max_error(self) -> float:
        """Worst per-site absolute error at this age."""
        return max(
            abs(self.predicted.get(code, 0.0) - self.actual.get(code, 0.0))
            for code in self.predicted
        )


def prediction_decay_study(
    verfploeter: Verfploeter,
    day_load_builder,
    eras: Sequence[int] = (0, 1, 2, 3),
    cache: Optional[RoutingCache] = None,
) -> List[DecayPoint]:
    """How fast do Verfploeter load predictions go stale (paper §5.5)?

    A single prediction is made from era-0 data (catchment scan plus
    historical load); each later era re-rolls a fraction of routing
    adjacencies and drifts the workload, and the prediction is compared
    against that era's actual per-site load.  The paper observes the
    April prediction (76.2%) was notably worse than the same-day one
    (81.6% vs 81.4% measured); this study generalises that to a curve.

    ``day_load_builder(era)`` must return the era's
    :class:`~repro.traffic.logs.DayLoad`.
    """
    from repro.load.prediction import measured_site_load

    service = verfploeter.service
    observer = verfploeter.observer
    routing_cache = cache if cache is not None else default_routing_cache()
    with observer.tracer.span(
        "experiment.prediction_decay", eras=len(eras)
    ):
        base_policy = service.default_policy()
        base_routing = routing_cache.get_or_compute(
            verfploeter.internet, base_policy, config=RoutingConfig(era=eras[0])
        )
        base_scan = verfploeter.run_scan(
            routing=base_routing, dataset_id="decay-base"
        )
        base_estimate = LoadEstimate(day_load_builder(eras[0]))
        prediction = weight_catchment(
            base_scan.catchment, base_estimate, observer=observer
        )
        predicted = prediction.fractions()

        points: List[DecayPoint] = []
        for era in eras:
            # Per-era RoutingConfig keys differ, so eras never delta into
            # each other — but the first era is a cache hit (it is the
            # prediction baseline computed above).
            era_routing = routing_cache.get_or_compute(
                verfploeter.internet, base_policy, config=RoutingConfig(era=era)
            )
            era_estimate = LoadEstimate(day_load_builder(era))
            actual = measured_site_load(era_routing, era_estimate).fractions()
            points.append(
                DecayPoint(era=era, predicted=predicted, actual=actual)
            )
        return points
