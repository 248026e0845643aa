"""Always-on mapping service: streaming ingest, live state, JSON API.

The batch pipeline measures a catchment once; this package keeps one
*alive*.  A feed of measurement rounds (:mod:`repro.service.feed`)
streams through incremental cleaning and catchment/load state
(:mod:`repro.service.state`) and is queryable over a zero-dependency
JSON API (:mod:`repro.service.http`: routing plus a one-thread
``selectors`` HTTP server; :mod:`repro.service.routes`) run by the
daemon (:mod:`repro.service.daemon`), also reachable as ``repro serve``.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "MappingService": "repro.service.daemon",
    "MeasurementState": "repro.service.state",
    "StateView": "repro.service.state",
    "RoundRecord": "repro.service.state",
    "batch_replay": "repro.service.state",
    "build_app": "repro.service.routes",
    "JsonApp": "repro.service.http",
    "Request": "repro.service.http",
    "FeedEvent": "repro.service.feed",
    "RoundStart": "repro.service.feed",
    "ReplyBatch": "repro.service.feed",
    "RoundEnd": "repro.service.feed",
    "replay_feed": "repro.service.feed",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
