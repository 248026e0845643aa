"""ICMP path latency: the RTT model behind every scan's reply timings.

Verfploeter's probes are ICMP Echo Requests sent from the anycast
measurement address; replies return to whichever anycast site BGP
selects for the replying network.  The packet encoding, the probed
hosts' behaviour and the per-packet dataplane are the wire oracle's
(:mod:`repro.oracle`); this package keeps the geographic latency model
both the engine and the oracle read.
"""
