"""Load estimation and calibrated catchment predictions (paper §3.2, §5.4-5.5)."""

from repro.lazy import lazy_exports

__all__ = [
    "LoadWindow",
    "LoadEstimate",
    "SiteLoad",
    "UNKNOWN",
    "weight_catchment",
    "capacity_violations",
    "PredictionComparison",
    "compare_prediction",
]

_EXPORTS = {
    "LoadWindow": "repro.load.windowed",
    "LoadEstimate": "repro.load.estimator",
    "SiteLoad": "repro.load.weighting",
    "UNKNOWN": "repro.load.weighting",
    "weight_catchment": "repro.load.weighting",
    "capacity_violations": "repro.load.weighting",
    "PredictionComparison": "repro.load.prediction",
    "compare_prediction": "repro.load.prediction",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
