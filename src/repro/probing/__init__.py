"""The Verfploeter prober: hitlists, probe ordering, and scheduling."""

from repro.lazy import lazy_exports

__all__ = [
    "Hitlist",
    "HitlistEntry",
    "build_hitlist",
    "PseudorandomOrder",
    "Prober",
    "ProberConfig",
    "ProbeSchedule",
]

_EXPORTS = {
    "Hitlist": "repro.probing.hitlist",
    "HitlistEntry": "repro.probing.hitlist",
    "build_hitlist": "repro.probing.hitlist",
    "PseudorandomOrder": "repro.probing.order",
    "Prober": "repro.probing.prober",
    "ProberConfig": "repro.probing.prober",
    "ProbeSchedule": "repro.probing.prober",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
