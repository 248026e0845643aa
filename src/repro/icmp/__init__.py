"""ICMP path latency: the RTT model behind every scan's reply timings.

Verfploeter's probes are ICMP Echo Requests sent from the anycast
measurement address; replies return to whichever anycast site BGP
selects for the replying network.  The packet encoding, the probed
hosts' behaviour and the per-packet dataplane are the wire oracle's
(:mod:`repro.oracle`); this package keeps the geographic latency model
both the engine and the oracle read.
"""

from repro.lazy import lazy_exports

__all__ = ["LatencyModel"]

_EXPORTS = {"LatencyModel": "repro.icmp.latency"}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
