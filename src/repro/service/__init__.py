"""Always-on mapping service: streaming ingest, live state, JSON API.

The batch pipeline measures a catchment once; this package keeps one
*alive*.  A feed of measurement rounds (:mod:`repro.service.feed`)
streams through incremental cleaning and catchment/load state
(:mod:`repro.service.state`) and is queryable over a zero-dependency
JSON API (:mod:`repro.service.http`: routing plus a one-thread
``selectors`` HTTP server; :mod:`repro.service.routes`) run by the
daemon (:mod:`repro.service.daemon`), also reachable as ``repro serve``.
"""

from repro.service.daemon import MappingService
from repro.service.feed import (
    FeedEvent,
    ReplyBatch,
    RoundEnd,
    RoundStart,
    replay_feed,
)
from repro.service.routes import build_app
from repro.service.state import (
    MeasurementState,
    RoundRecord,
    StateView,
    batch_replay,
)
from repro.service.http import JsonApp, Request

__all__ = [
    "MappingService",
    "MeasurementState",
    "StateView",
    "RoundRecord",
    "batch_replay",
    "build_app",
    "JsonApp",
    "Request",
    "FeedEvent",
    "RoundStart",
    "ReplyBatch",
    "RoundEnd",
    "replay_feed",
]
