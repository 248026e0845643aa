"""The Verfploeter measurement system (paper §3.1).

Ties the pieces together: schedule a round of pings from the anycast
measurement address over the hitlist, deliver replies through the
simulated dataplane to whichever site BGP selects, capture at every
site, aggregate centrally, clean, and emit a measured catchment map.
"""

from __future__ import annotations

import io
from threading import Lock
from typing import Dict, List, Optional, Tuple

from repro.anycast.catchment import CatchmentMap
from repro.anycast.service import AnycastService
from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import RoutingOutcome, compute_routes
from repro.collector.aggregate import CentralCollector
from repro.collector.capture import (
    LanderCapture,
    PcapLikeCapture,
    SiteCapture,
    StreamingCapture,
)
from repro.collector.cleaning import CleaningConfig, clean_replies
from repro.collector.results import ScanResult, ScanStats
from repro.errors import ConfigurationError, MeasurementError
from repro.icmp.latency import LatencyModel
from repro.icmp.network import DeliveredReply, SimulatedDataplane
from repro.icmp.packets import build_probe
from repro.obs import NULL_OBSERVER, Observer
from repro.probing.hitlist import Hitlist, build_hitlist
from repro.probing.prober import ProbeSchedule, Prober, ProberConfig
from repro.topology.internet import Internet

CAPTURE_STYLES = ("streaming", "lander", "pcap")


class Verfploeter:
    """A Verfploeter deployment on one anycast service."""

    def __init__(
        self,
        internet: Internet,
        service: AnycastService,
        capture_style: str = "streaming",
        prober_config: Optional[ProberConfig] = None,
        hitlist: Optional[Hitlist] = None,
        cleaning: Optional[CleaningConfig] = None,
        latency_model: Optional[LatencyModel] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if capture_style not in CAPTURE_STYLES:
            raise ConfigurationError(
                f"capture_style must be one of {CAPTURE_STYLES}, got {capture_style!r}"
            )
        self.internet = internet
        self.service = service
        self.capture_style = capture_style
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.cleaning = cleaning if cleaning is not None else CleaningConfig()
        if hitlist is not None:
            self.hitlist = hitlist
        else:
            with self.observer.tracer.span("hitlist.build") as span:
                self.hitlist = build_hitlist(internet)
                span.set(entries=len(self.hitlist))
        self.observer.metrics.gauge("hitlist.entries").set(len(self.hitlist))
        self.latency_model = (
            latency_model
            if latency_model is not None
            else LatencyModel(internet, service)
        )
        self.prober_config = prober_config or ProberConfig(
            source_address=service.measurement_address
        )
        if not service.prefix.contains_address(self.prober_config.source_address):
            raise ConfigurationError(
                "prober source address must be inside the service prefix "
                f"{service.prefix}"
            )
        self._prober = Prober(
            self.hitlist, self.prober_config, internet.seed,
            observer=self.observer,
        )
        self._engine: Optional["FastScanEngine"] = None
        self._round_state: Optional["RoundState"] = None
        self._round_state_lock = Lock()

    def _make_captures(self) -> List[SiteCapture]:
        captures: List[SiteCapture] = []
        for site in self.service.sites:
            if self.capture_style == "streaming":
                captures.append(StreamingCapture(site.code))
            elif self.capture_style == "lander":
                captures.append(LanderCapture(site.code))
            else:
                captures.append(PcapLikeCapture(site.code, io.StringIO()))
        return captures

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
        slot and directly built ones alike).  Locked, so concurrent
        callers still build it once."""
        with self._round_state_lock:
            if self._round_state is None:
                from repro.core.fastscan import build_round_state

                observer = self.observer
                with observer.tracer.span("fastscan.invariant") as span:
                    with observer.profile("fastscan.invariant"):
                        self._round_state = build_round_state(self)
                    span.set(blocks=self._round_state.rows)
                observer.metrics.counter("fastscan.invariant.builds").inc()
            return self._round_state

    def engine_for(self, routing: RoutingOutcome) -> "FastScanEngine":
        """The columnar engine for ``routing``, memoised in a single slot.

        Keyed by the identity of the routing outcome: a series pays one
        precompute, a sweep over routing states one set of per-PoP route
        columns each (the block columns are :meth:`round_state`'s).  The
        slot is assigned only after construction, so concurrent callers
        at worst build an engine each — never observe one bound to
        another routing.  Imported lazily because
        :mod:`repro.core.fastscan` imports this module.
        """
        engine = self._engine
        if engine is None or engine.routing is not routing:
            from repro.core.fastscan import FastScanEngine

            self._engine = engine = FastScanEngine(self, routing)
        return engine

    def wire_round(
        self, routing: RoutingOutcome, round_id: int, start_time: float
    ) -> Tuple[ProbeSchedule, Dict[int, float], List[DeliveredReply]]:
        """The oracle's probe → reply → collect walk of one round: its
        schedule, each probed address's send time and the collector's
        sorted drain *before* cleaning (what ``wire_level=True`` cleans
        and the daemon's columnar feed is compared against)."""
        observer = self.observer
        dataplane = SimulatedDataplane(routing, self.latency_model)
        collector = CentralCollector(self._make_captures(), observer=observer)
        schedule = self._prober.schedule_round(round_id, start_time)
        send_times: Dict[int, float] = {}
        config = self.prober_config
        with observer.tracer.span("scan.probe_replies"):
            for probe in schedule:
                send_times[probe.destination] = probe.send_time
                packet = build_probe(
                    config.source_address, probe.destination, probe.identifier,
                    probe.sequence, config.payload,
                )
                for reply in dataplane.send_probe_packet(
                    packet, probe.send_time, round_id
                ):
                    collector.ingest(reply)
        return schedule, send_times, collector.collect()

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

        ``wire_level=True`` walks the paper's Figure 1 packet by packet
        — full ICMP encode/decode, per-site captures, central merge,
        cleaning — and is the oracle the equivalence suites compare
        against.  Every other call, whatever the hitlist size, evaluates
        the round on the columnar :meth:`engine_for` this routing state:
        same catchment, same stats, RTTs equal to 1e-9.
        """
        if routing is not None and policy is not None:
            raise MeasurementError("pass either routing or policy, not both")
        if routing is None:
            routing = self.routing_for(policy)
        dataset_id = dataset_id or f"scan-r{round_id}"
        if not wire_level:
            return self.engine_for(routing).run_scan(
                round_id, start_time, dataset_id
            )
        observer = self.observer
        with observer.tracer.span("scan.round", round_id=round_id) as scan_span:
            schedule, send_times, collected = self.wire_round(
                routing, round_id, start_time
            )
            replies_received = len(collected)
            cleaned = clean_replies(
                collected,
                set(send_times),
                schedule.identifier,
                start_time,
                self.cleaning,
                observer=observer,
            )
            with observer.tracer.span("catchment.map") as map_span:
                mapping: Dict[int, str] = {
                    reply.source_block: reply.site_code for reply in cleaned.kept
                }
                rtts: Dict[int, float] = {
                    reply.source_block: (
                        reply.timestamp - send_times[reply.source_address]
                    ) * 1000.0
                    for reply in cleaned.kept
                }
                catchment = CatchmentMap(routing.policy.site_codes, mapping)
                map_span.set(mapped_blocks=len(mapping))
            observer.metrics.counter("probe.probes_sent").inc(len(schedule))
            observer.metrics.counter("collector.replies_received").inc(
                replies_received
            )
            scan_span.set(
                probes_sent=len(schedule),
                replies_received=replies_received,
                kept=len(cleaned.kept),
            )
            if observer.enabled:
                for code, fraction in sorted(catchment.fractions().items()):
                    observer.metrics.gauge(
                        "catchment.fraction", site=code
                    ).set(fraction)
            stats = ScanStats(
                probes_sent=len(schedule),
                replies_received=replies_received,
                wrong_round=cleaned.wrong_round,
                unsolicited=cleaned.unsolicited,
                late=cleaned.late,
                duplicates=cleaned.duplicates,
                kept=len(cleaned.kept),
            )
            return ScanResult(
                dataset_id=dataset_id,
                round_id=round_id,
                start_time=start_time,
                duration_seconds=schedule.duration_seconds,
                catchment=catchment,
                stats=stats,
                rtts=rtts,
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
