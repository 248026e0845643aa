"""ICMP layer: wire format, host responder behaviour, simulated dataplane.

Verfploeter's probes are ICMP Echo Requests sent from the anycast
measurement address; replies return to whichever anycast site BGP
selects for the replying network.  This package implements the packet
encoding (checksums and all), the behaviour of probed hosts (duplicates,
off-address replies, latency), and the dataplane that delivers replies
to the catchment site.
"""

from repro.lazy import lazy_exports

__all__ = [
    "ICMP_ECHO_REQUEST",
    "ICMP_ECHO_REPLY",
    "EchoMessage",
    "IPv4Header",
    "internet_checksum",
    "build_probe",
    "build_reply",
    "parse_packet",
    "HostResponder",
    "ReplyEvent",
    "SimulatedDataplane",
    "DeliveredReply",
]

_EXPORTS = {
    "ICMP_ECHO_REQUEST": "repro.icmp.packets",
    "ICMP_ECHO_REPLY": "repro.icmp.packets",
    "EchoMessage": "repro.icmp.packets",
    "IPv4Header": "repro.icmp.packets",
    "internet_checksum": "repro.icmp.packets",
    "build_probe": "repro.icmp.packets",
    "build_reply": "repro.icmp.packets",
    "parse_packet": "repro.icmp.packets",
    "HostResponder": "repro.icmp.responder",
    "ReplyEvent": "repro.icmp.responder",
    "SimulatedDataplane": "repro.icmp.network",
    "DeliveredReply": "repro.icmp.network",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
