"""RIPE Atlas platform simulation.

Models the measurement platform the paper compares against: ~10k
physical vantage points whose deployment is heavily skewed toward
Europe (well documented in [8] and visible in the paper's Figure 2a),
querying the anycast service with CHAOS TXT ``hostname.bind`` to learn
their serving site.
"""

from repro.lazy import lazy_exports

__all__ = ["AtlasVP", "AtlasPlatform", "AtlasMeasurement", "AtlasResult"]

_EXPORTS = {
    "AtlasVP": "repro.atlas.vp",
    "AtlasPlatform": "repro.atlas.platform",
    "AtlasMeasurement": "repro.atlas.platform",
    "AtlasResult": "repro.atlas.platform",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
