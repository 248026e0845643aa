"""The wire-level oracle: the paper's Figure 1 walk, packet by packet (§3.1).

Each round schedules the hitlist's pings from the anycast measurement
address, encodes every probe as an ICMP echo, delivers the replies
through the simulated dataplane to whichever site BGP selects, captures
them per site, merges them centrally, cleans them (§4) and maps the
kept replies to a catchment.  Nothing on an operator path runs this
package — :mod:`repro.lint.layers` puts it above every operator package,
so none may import it: every scan there is the columnar engine
(:meth:`Verfploeter.run_scan`).  The equivalence suites hold the engine
to :func:`wire_scan`, and the daemon's columnar feed to
:func:`wire_round`.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

from repro.anycast.catchment import CatchmentMap
from repro.bgp.propagation import RoutingOutcome
from repro.collector.results import BlockValueMap, ScanResult, ScanStats
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError
from repro.oracle.aggregate import CentralCollector
from repro.oracle.capture import (
    LanderCapture,
    PcapLikeCapture,
    SiteCapture,
    StreamingCapture,
)
from repro.oracle.cleaning import clean_replies
from repro.oracle.network import DeliveredReply, SimulatedDataplane
from repro.oracle.packets import build_probe
from repro.oracle.schedule import ProbeSchedule

CAPTURE_STYLES = ("streaming", "lander", "pcap")


def _make_captures(site_codes: List[str], capture_style: str) -> List[SiteCapture]:
    """One capture per site, in the paper's ``capture_style``."""
    if capture_style not in CAPTURE_STYLES:
        raise ConfigurationError(
            f"capture_style must be one of {CAPTURE_STYLES}, got {capture_style!r}"
        )
    if capture_style == "streaming":
        return [StreamingCapture(code) for code in site_codes]
    if capture_style == "lander":
        return [LanderCapture(code) for code in site_codes]
    return [PcapLikeCapture(code, io.StringIO()) for code in site_codes]


def wire_round(
    verfploeter: Verfploeter,
    routing: RoutingOutcome,
    round_id: int = 0,
    start_time: float = 0.0,
    capture_style: str = "streaming",
) -> Tuple[ProbeSchedule, Dict[int, float], List[DeliveredReply]]:
    """The probe → reply → collect walk of one round: its schedule, each
    probed address's send time and the collector's sorted drain *before*
    cleaning (what :func:`wire_scan` cleans and the daemon's columnar
    feed is compared against)."""
    observer = verfploeter.observer
    captures = _make_captures(verfploeter.service.site_codes, capture_style)
    dataplane = SimulatedDataplane(routing, verfploeter.latency_model)
    collector = CentralCollector(captures, observer=observer)
    config = verfploeter.prober_config
    with observer.tracer.span("probe.schedule", round_id=round_id) as span:
        schedule = ProbeSchedule(
            verfploeter.hitlist, config, verfploeter.internet.seed, round_id, start_time
        )
        span.set(probes=len(schedule))
    observer.metrics.counter("probe.rounds_scheduled").inc()
    send_times: Dict[int, float] = {}
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


def wire_scan(
    verfploeter: Verfploeter,
    routing: RoutingOutcome,
    round_id: int = 0,
    start_time: float = 0.0,
    dataset_id: Optional[str] = None,
    capture_style: str = "streaming",
) -> ScanResult:
    """One measurement round walked packet by packet — full ICMP
    encode/decode, per-site captures, central merge, cleaning.  Equal to
    ``verfploeter.run_scan(routing=routing, ...)``: same catchment, same
    stats, RTTs equal to 1e-9 (1e-3 ms under ``capture_style="pcap"``,
    whose files keep microsecond timestamps)."""
    observer = verfploeter.observer
    with observer.tracer.span("scan.round", round_id=round_id) as scan_span:
        schedule, send_times, collected = wire_round(
            verfploeter, routing, round_id, start_time, capture_style
        )
        replies_received = len(collected)
        cleaned = clean_replies(
            collected,
            set(send_times),
            schedule.identifier,
            start_time,
            verfploeter.cleaning,
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
            catchment = CatchmentMap.from_mapping(routing.policy.site_codes, mapping)
            map_span.set(mapped_blocks=len(mapping))
        observer.metrics.counter("probe.probes_sent").inc(len(schedule))
        observer.metrics.counter("collector.replies_received").inc(replies_received)
        scan_span.set(
            probes_sent=len(schedule),
            replies_received=replies_received,
            kept=len(cleaned.kept),
        )
        if observer.enabled:
            for code, fraction in sorted(catchment.fractions().items()):
                observer.metrics.gauge("catchment.fraction", site=code).set(fraction)
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
            dataset_id=dataset_id or f"scan-r{round_id}",
            round_id=round_id,
            start_time=start_time,
            duration_seconds=schedule.duration_seconds,
            catchment=catchment,
            stats=stats,
            rtts=BlockValueMap.from_mapping(rtts),
        )
