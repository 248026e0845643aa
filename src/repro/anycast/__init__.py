"""Anycast service model: sites, the service itself, and catchment maps."""

from repro.lazy import lazy_exports

__all__ = [
    "AnycastSite",
    "AnycastService",
    "CatchmentMap",
    "ArrayCatchmentMap",
    "CatchmentAccumulator",
]

_EXPORTS = {
    "AnycastSite": "repro.anycast.site",
    "AnycastService": "repro.anycast.service",
    "CatchmentMap": "repro.anycast.catchment",
    "ArrayCatchmentMap": "repro.anycast.catchment",
    "CatchmentAccumulator": "repro.anycast.catchment",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
