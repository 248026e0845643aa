"""Endpoint handlers of the mapping service's JSON API.

Five read-only endpoints over a :class:`~repro.service.state.StateView`:

- ``GET /v1/health`` — liveness plus ingest progress counters.
- ``GET /v1/catchment/<block>`` — current site of one /24 block.
- ``GET /v1/load`` — windowed per-site load (daily, hourly, fractions).
- ``GET /v1/diff?rounds=N`` — catchment churn over the last N rounds.
- ``GET /v1/metrics`` — the observer's metrics document.

Every handler reads ``state.view`` exactly once, so a response is a
pure function of one published view: concurrent ingest can swap views
between requests but never mid-request, and the data endpoints answer
byte-identically to a quiesced daemon at the same round (``/v1/load``
and ``/v1/diff``, functions of the view alone, render once per view).
Endpoints that need data before the first round completes answer a
structured 409 rather than guessing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import HttpError
from repro.obs import Observer
from repro.service.http import DECIMAL, JsonApp, Request, render_json
from repro.service.state import MeasurementState, StateView

_MAX_BLOCK = 0xFFFFFFFFFFFFFFFF


def _require_rounds(view: StateView) -> StateView:
    """The view, or a 409 when no round has completed yet."""
    if view.rounds_completed == 0:
        raise HttpError(
            409, "no-rounds", "no measurement round has completed yet"
        )
    return view


def _parse_block(raw: str) -> int:
    """Decimal block key from the path, 400 on anything else."""
    if DECIMAL.fullmatch(raw) is None or raw.startswith("-"):
        raise HttpError(
            400, "bad-block", f"block must be a decimal integer, got {raw!r}"
        )
    block = int(raw)
    if block > _MAX_BLOCK:
        raise HttpError(400, "bad-block", "block outside the uint64 range")
    return block


def _site_load_document(load, site_codes) -> Dict[str, object]:
    """JSON-ready rendering of one ``SiteLoad`` (plain Python floats)."""
    fractions = load.fractions(include_unknown=True)
    return {
        "daily": {
            code: float(load.daily_of(code))
            for code in [*site_codes, "UNK"]
        },
        "hourly": {
            code: [float(value) for value in load.hourly_of(code)]
            for code in [*site_codes, "UNK"]
        },
        "fractions": {code: float(share) for code, share in fractions.items()},
        "total": float(load.total(include_unknown=True)),
        "unknown_fraction": float(load.unknown_fraction()),
    }


def _rendered(view: StateView, key: object, build: Callable[[], object]) -> bytes:
    """The body for ``key``, rendered once per view (a race renders equal bytes)."""
    body = view.rendered.get(key)
    if body is None:
        body = view.rendered[key] = render_json(build())
    return body


def build_app(
    state: MeasurementState, observer: Optional[Observer] = None
) -> JsonApp:
    """The service's JSON app, with every route bound to ``state``."""
    resolved = observer if observer is not None else state.observer
    app = JsonApp(observer=resolved)

    def health(request: Request) -> Dict[str, object]:
        """Liveness: always 200, with ingest progress counters."""
        view = state.view
        return {
            "status": "ok",
            "rounds_completed": view.rounds_completed,
            "round_open": state.round_open,
            "quarantined_batches": view.quarantined_batches,
            "generation": view.generation,
        }

    def catchment(request: Request) -> Dict[str, object]:
        """Current site of one block (null when unmapped)."""
        view = _require_rounds(state.view)
        block = _parse_block(request.params["block"])
        return {
            "block": block,
            "site": view.catchment.site_of(block),
            "round_id": view.rounds[-1].round_id,
            "generation": view.generation,
        }

    def load(request: Request) -> bytes:
        """Windowed load aggregate plus the latest round's own load."""
        view = _require_rounds(state.view)
        latest = view.rounds[-1]
        return _rendered(view, "load", lambda: {
            "round_id": latest.round_id,
            "window_size": view.window_size,
            "window": _site_load_document(view.window_load, view.site_codes),
            "latest_round": _site_load_document(latest.load, view.site_codes),
        })

    def diff(request: Request) -> bytes:
        """Catchment churn between the round N back and the latest."""
        view = _require_rounds(state.view)
        span = request.query_int("rounds", default=1, minimum=1)
        available = len(view.rounds)
        if span + 1 > available:
            raise HttpError(
                400,
                "empty-window",
                f"diff over {span} round(s) needs {span + 1} rounds in the "
                f"ring; only {available} available",
            )

        def document() -> Dict[str, object]:
            earlier = view.rounds[-1 - span]
            latest = view.rounds[-1]
            delta = earlier.catchment.diff(latest.catchment)
            return {
                "from_round": earlier.round_id,
                "to_round": latest.round_id,
                "stable": delta.stable,
                "flipped": delta.flipped,
                "appeared": delta.appeared,
                "disappeared": delta.disappeared,
                "flipped_blocks": [int(block) for block in delta.flipped_blocks],
            }

        return _rendered(view, ("diff", span), document)

    def metrics(request: Request) -> Dict[str, object]:
        """The observer's full metrics document."""
        return resolved.metrics.to_dict()

    app.get("/v1/health", health)
    app.get("/v1/catchment/<block>", catchment)
    app.get("/v1/load", load)
    app.get("/v1/diff", diff)
    app.get("/v1/metrics", metrics)
    return app
