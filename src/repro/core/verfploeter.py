"""The Verfploeter measurement system (paper §3.1).

Ties the pieces together: a deployment holds the hitlist, computes the
routing of the service's announcement, and measures each round's
catchment on the columnar engine (:mod:`repro.core.fastscan`), one
engine per routing state.  The paper's packet-by-packet walk — schedule
the pings, deliver replies to whichever site BGP selects, capture at
every site, aggregate centrally, clean — is the test oracle
:mod:`repro.oracle.scan`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.anycast.service import AnycastService
from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import RoutingOutcome, compute_routes
from repro.collector.cleaning import CleaningConfig
from repro.collector.results import ScanResult, ScanStats  # noqa: F401 (served by repro.core)
from repro.errors import ConfigurationError, MeasurementError
from repro.icmp.latency import LatencyModel
from repro.obs import NULL_OBSERVER, Observer
from repro.probing.hitlist import Hitlist, build_hitlist
from repro.probing.prober import ProberConfig
from repro.topology.internet import Internet

if TYPE_CHECKING:
    from repro.core.fastscan import FastScanEngine, RoundState


class Verfploeter:
    """A Verfploeter deployment on one anycast service.

    Probes go out from the service's measurement address at the default
    :class:`ProberConfig` rate, and replies are cleaned under the
    default :class:`CleaningConfig` (paper §4).
    """

    def __init__(
        self,
        internet: Internet,
        service: AnycastService,
        hitlist: Optional[Hitlist] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.internet = internet
        self.service = service
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.cleaning = CleaningConfig()
        if hitlist is not None:
            self.hitlist = hitlist
        else:
            with self.observer.tracer.span("hitlist.build") as span:
                self.hitlist = build_hitlist(internet)
                span.set(entries=len(self.hitlist))
        self.observer.metrics.gauge("hitlist.entries").set(len(self.hitlist))
        self.latency_model = LatencyModel(internet, service)
        self.prober_config = ProberConfig(source_address=service.measurement_address)
        self._engine: Optional["FastScanEngine"] = None
        self._round_state: Optional["RoundState"] = None

    def routing_for(
        self, policy: Optional[AnnouncementPolicy] = None
    ) -> RoutingOutcome:
        """Compute routes for ``policy`` (default: all sites, no prepend)."""
        with self.observer.tracer.span("bgp.propagate.full") as span:
            outcome = compute_routes(
                self.internet, policy or self.service.default_policy()
            )
            span.set(sites=len(outcome.policy.site_codes))
        self.observer.metrics.counter("routing.full_computes").inc()
        return outcome

    def round_state(self) -> "RoundState":
        """The routing-invariant scan state, built once per deployment and
        shared read-only by every engine on it (the :meth:`engine_for`
        slot and directly built ones alike)."""
        if self._round_state is None:
            from repro.core.fastscan import build_round_state

            observer = self.observer
            with observer.tracer.span("fastscan.invariant") as span:
                self._round_state = build_round_state(self)
                span.set(blocks=self._round_state.rows)
            observer.metrics.counter("fastscan.invariant.builds").inc()
        return self._round_state

    def engine_for(self, routing: RoutingOutcome) -> "FastScanEngine":
        """The columnar engine for ``routing``, memoised in a single slot.

        Keyed by the identity of the routing outcome: a series pays one
        precompute (the block columns are :meth:`round_state`'s).
        What-if lattices skip the slot: :func:`~repro.core.fastscan.scan_lattice`
        builds all their route columns in one stacked pick.  Imported
        lazily because :mod:`repro.core.fastscan` imports this module.
        """
        engine = self._engine
        if engine is None or engine.routing is not routing:
            from repro.core.fastscan import FastScanEngine

            self._engine = engine = FastScanEngine(self, routing)
        return engine

    def run_scan(
        self,
        routing: Optional[RoutingOutcome] = None,
        policy: Optional[AnnouncementPolicy] = None,
        round_id: int = 0,
        start_time: float = 0.0,
        dataset_id: Optional[str] = None,
        wire_level: bool = False,
    ) -> ScanResult:
        """Run one measurement round and return the cleaned catchment.

        Whatever the hitlist size, the round is evaluated on the
        columnar :meth:`engine_for` this routing state.  The paper's
        packet-by-packet walk is the test oracle
        :func:`repro.oracle.scan.wire_scan`; ``wire_level=True`` raises
        :class:`ConfigurationError` naming it.
        """
        if wire_level:
            raise ConfigurationError(
                "the wire-level walk is not a scan mode: call "
                "repro.oracle.scan.wire_scan(verfploeter, routing, ...)"
            )
        if routing is not None and policy is not None:
            raise MeasurementError("pass either routing or policy, not both")
        if routing is None:
            routing = self.routing_for(policy)
        return self.engine_for(routing).run_scan(
            round_id, start_time, dataset_id or f"scan-r{round_id}"
        )

    def run_series(
        self,
        policy: Optional[AnnouncementPolicy] = None,
        rounds: int = 96,
        interval_seconds: float = 900.0,
        dataset_prefix: str = "series",
        routing: Optional[RoutingOutcome] = None,
    ) -> List[ScanResult]:
        """Run ``rounds`` scans spaced ``interval_seconds`` apart.

        Mirrors the paper's 24-hour Tangled study (96 rounds every
        15 minutes, dataset STV-3-23).  Routing is computed once (or
        passed in precomputed via ``routing``); the per-round variation
        comes from host churn and route flipping.
        """
        if rounds < 1:
            raise MeasurementError("rounds must be >= 1")
        if routing is not None and policy is not None:
            raise MeasurementError("pass either routing or policy, not both")
        if routing is None:
            routing = self.routing_for(policy)
        return [
            self.run_scan(
                routing=routing,
                round_id=round_id,
                start_time=round_id * interval_seconds,
                dataset_id=f"{dataset_prefix}-r{round_id:03d}",
            )
            for round_id in range(rounds)
        ]
