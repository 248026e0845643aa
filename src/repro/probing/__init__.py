"""The Verfploeter prober's inputs: the hitlist and the prober parameters.

The scalar probe walk (Feistel order, per-round schedule) is the wire
oracle's (:mod:`repro.oracle.schedule`); the engine reads the same
order seed (:func:`~repro.probing.prober.round_order_seed`).
"""

from repro.lazy import lazy_exports

__all__ = [
    "Hitlist",
    "build_hitlist",
    "ProberConfig",
]

_EXPORTS = {
    "Hitlist": "repro.probing.hitlist",
    "build_hitlist": "repro.probing.hitlist",
    "ProberConfig": "repro.probing.prober",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
