"""Simulated dataplane: probes out, replies back to the catchment site.

This is the crux of Verfploeter (paper Figure 1, right half): the
request is sent *from* the anycast measurement address, so the reply is
addressed to the anycast prefix and lands at whichever site BGP selects
for the *replying* network — identifying its catchment.

Only the wire oracle (:func:`repro.oracle.scan.wire_scan`) walks this module
probe by probe; default scans and the daemon's feed compute the same
replies as columns (:mod:`repro.core.fastscan`, :mod:`repro.service.feed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bgp.propagation import RoutingOutcome
from repro.bgp.reference import site_of_block
from repro.errors import MeasurementError
from repro.icmp.latency import LatencyModel
from repro.oracle.packets import build_reply, parse_packet
from repro.oracle.responder import HostResponder, ReplyEvent


@dataclass(frozen=True)
class DeliveredReply:
    """A reply as it arrives at an anycast site."""

    site_code: str
    source_address: int
    identifier: int
    sequence: int
    timestamp: float

    @property
    def source_block(self) -> int:
        """/24 block the reply came from."""
        return self.source_address >> 8


class SimulatedDataplane:
    """Routes probes to hosts and replies to their catchment sites.

    With a :class:`~repro.icmp.latency.LatencyModel` attached, reply
    timings reflect geography (propagation to the catchment site plus
    access delay) instead of the host model's generic delays — this is
    what gives Verfploeter scans meaningful RTTs (paper §7).
    """

    def __init__(
        self,
        routing: RoutingOutcome,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.routing = routing
        self.latency = latency_model
        self._responder = HostResponder(routing.internet)
        self._late_threshold_ms = (
            routing.internet.host_model.config.late_threshold_ms
        )

    def _deliver(
        self,
        events: List[ReplyEvent],
        identifier: int,
        sequence: int,
        timestamp: float,
        round_id: int,
    ) -> List[DeliveredReply]:
        delivered: List[DeliveredReply] = []
        for index, event in enumerate(events):
            site = site_of_block(self.routing, event.source_block, round_id)
            if site is None:
                continue  # network unreachable from the anycast prefix
            delay_ms = event.delay_ms
            if self.latency is not None and delay_ms < self._late_threshold_ms:
                path_rtt = self.latency.rtt_ms(event.source_block, site, round_id)
                if path_rtt is not None:
                    # Geographic RTT; duplicates trail by a small gap.
                    delay_ms = path_rtt + 0.1 * index
            delivered.append(
                DeliveredReply(
                    site_code=site,
                    source_address=event.source_address,
                    identifier=identifier,
                    sequence=sequence,
                    timestamp=timestamp + delay_ms / 1000.0,
                )
            )
        return delivered

    def send_probe_packet(
        self, packet: bytes, timestamp: float, round_id: int
    ) -> List[DeliveredReply]:
        """Parse the probe, simulate the host, deliver its replies.

        The one per-probe walker: the wire oracle's, byte-for-byte
        through the packet encode/decode path.
        """
        header, message = parse_packet(packet)
        if not message.is_request:
            raise MeasurementError("send_probe_packet expects an echo request")
        events = self._responder.respond(header.destination, message, round_id)
        for event in events:
            # Round-trip each reply through the wire format so malformed
            # encodes would surface immediately.
            wire = build_reply(
                event.source_address,
                header.source,
                event.message.identifier,
                event.message.sequence,
                event.message.payload,
            )
            parse_packet(wire)
        return self._deliver(
            events, message.identifier, message.sequence, timestamp, round_id
        )
