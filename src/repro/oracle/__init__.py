"""The wire oracle: the paper's Figure 1 scan, packet by packet (§3.1, §4).

Feistel-ordered pings (:mod:`~repro.oracle.schedule`), the ICMP echo
codec (:mod:`~repro.oracle.packets`), per-host replies
(:mod:`~repro.oracle.responder`), the dataplane that delivers them to the
catchment site (:mod:`~repro.oracle.network`), the three per-site
captures (:mod:`~repro.oracle.capture`), the central merge
(:mod:`~repro.oracle.aggregate`) and §4 cleaning over reply objects
(:mod:`~repro.oracle.cleaning`), walked by :func:`wire_scan` and
:func:`wire_round`.  No operator path runs it: every scan is the
columnar engine (:mod:`repro.core.fastscan`), which the equivalence
suites hold to this walk.  It is the top layer of
:mod:`repro.lint.layers`, so no other ``repro`` package may import it.
"""

from repro.lazy import lazy_exports

__all__ = ["wire_scan", "wire_round"]

_EXPORTS = {"wire_scan": "repro.oracle.scan", "wire_round": "repro.oracle.scan"}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
