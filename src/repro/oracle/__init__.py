"""The wire oracles: the paper's Figure 1 scan, packet by packet (§3.1,
§4), and Atlas's CHAOS measurement, message by message (§2, §5.3).

Feistel-ordered pings (:mod:`~repro.oracle.schedule`), the ICMP echo
codec (:mod:`~repro.oracle.packets`), per-host replies
(:mod:`~repro.oracle.responder`), the dataplane that delivers them to the
catchment site (:mod:`~repro.oracle.network`), the three per-site
captures (:mod:`~repro.oracle.capture`), the central merge
(:mod:`~repro.oracle.aggregate`) and §4 cleaning over reply objects
(:mod:`~repro.oracle.cleaning`), walked by
:func:`~repro.oracle.scan.wire_scan` and
:func:`~repro.oracle.scan.wire_round`; the DNS codec
(:mod:`~repro.oracle.dns`) and the sites' identity nameservers, walked
by :func:`~repro.oracle.chaos.wire_measure`.  No operator path runs
them: every scan is the columnar engine (:mod:`repro.core.fastscan`)
and every Atlas measurement a column read, which the equivalence suites
hold to these walks.  It is the top layer of :mod:`repro.lint.layers`,
so no other ``repro`` package may import it.
"""
