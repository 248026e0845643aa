"""The always-on mapping daemon: ingest loop plus HTTP front-end.

A :class:`MappingService` couples a feed (any iterator of
:mod:`repro.service.feed` events) to a
:class:`~repro.service.state.MeasurementState` and serves the JSON API
from :class:`~repro.service.http.HttpServer` — the standard library is
the whole HTTP stack, no framework, no new dependency.

Threads: one ingest thread drains the feed; one I/O thread runs the
HTTP server's ``selectors`` loop and answers every request on it.  They
share nothing mutable — requests read the state's atomically published
view — so there is no lock between ingest and queries.  Shutdown drains
cleanly: the ingest loop checks the stop flag only at round boundaries,
so a round that has started always ends (and publishes) before the
thread exits, and the HTTP server is closed after ingest has settled.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.obs import Observer
from repro.service.feed import FeedEvent, ReplyBatch, RoundEnd, RoundStart
from repro.service.routes import build_app
from repro.service.state import MeasurementState
from repro.service.http import HttpServer, JsonApp


class MappingService:
    """Long-running service: feed in, JSON API out."""

    def __init__(
        self,
        state: MeasurementState,
        feed: Iterable[FeedEvent],
        observer: Optional[Observer] = None,
    ) -> None:
        self._state = state
        self._feed = iter(feed)
        self._observer = observer if observer is not None else state.observer
        self._app = build_app(state, observer=self._observer)
        self._stop = threading.Event()
        self._ingest_thread: Optional[threading.Thread] = None
        self._ingest_done = threading.Event()
        self._ingest_error: Optional[ReproError] = None
        self._server: Optional[HttpServer] = None

    @property
    def state(self) -> MeasurementState:
        """The measurement state this daemon maintains."""
        return self._state

    @property
    def app(self) -> JsonApp:
        """The JSON app (``app.respond`` needs no socket, in tests)."""
        return self._app

    # -- ingest ------------------------------------------------------------

    def ingest(self, max_rounds: Optional[int] = None) -> int:
        """Drain the feed synchronously; returns rounds completed.

        Stops after ``max_rounds`` round ends (or feed exhaustion), and
        honours :meth:`shutdown`'s stop flag **only at round
        boundaries** — an open round is always finished and published,
        never abandoned half-ingested.  A failure of the feed or of the
        state ends the drain: it is counted as ``service.ingest.failed``
        and raised as a :class:`~repro.errors.ReproError` (anything
        else becomes a :class:`~repro.errors.ServiceError`); the
        published view stays at the last completed round.
        """
        try:
            return self._drain(max_rounds)
        except Exception as err:
            self._observer.metrics.counter("service.ingest.failed").inc()
            if isinstance(err, ReproError):
                raise
            raise ServiceError(f"ingest failed: {type(err).__name__}: {err}") from err

    def _drain(self, max_rounds: Optional[int]) -> int:
        """:meth:`ingest`'s loop over the feed."""
        completed = 0
        state = self._state
        for event in self._feed:
            if isinstance(event, RoundStart):
                if self._stop.is_set():
                    break
                state.begin_round(
                    event.round_id, event.start_time, event.probed_addresses
                )
            elif isinstance(event, ReplyBatch):
                state.ingest_batch(event.replies)
            elif isinstance(event, RoundEnd):
                state.end_round()
                completed += 1
                if self._stop.is_set():
                    break
                if max_rounds is not None and completed >= max_rounds:
                    break
            else:
                raise ServiceError(
                    f"unknown feed event type {type(event).__name__}"
                )
        return completed

    def start_ingest(self, max_rounds: Optional[int] = None) -> None:
        """Run :meth:`ingest` on a background thread."""
        if self._ingest_thread is not None:
            raise ServiceError("ingest is already running")
        self._ingest_thread = threading.Thread(
            target=self._ingest_in_background,
            args=(max_rounds,),
            name="repro-serve-ingest",
            daemon=True,
        )
        self._ingest_thread.start()

    def _ingest_in_background(self, max_rounds: Optional[int]) -> None:
        try:
            self.ingest(max_rounds)
        except ReproError as err:
            self._ingest_error = err
        finally:
            self._ingest_done.set()

    def wait_ingest(self) -> None:
        """Block until the background ingest ends; re-raise what ended it.

        Waits on an event, not ``Thread.join``: interrupted by a signal,
        CPython 3.11's ``join`` marks the still-running thread stopped,
        and :meth:`shutdown` would then no longer wait for the drain.
        """
        if self._ingest_thread is None:
            raise ServiceError("no background ingest to wait for")
        self._ingest_done.wait()
        err = self._ingest_error
        if err is not None:
            raise err

    # -- HTTP --------------------------------------------------------------

    def serve_http(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Start the HTTP front-end; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (the default, so smoke runs
        and parallel test workers never collide).
        """
        if self._server is not None:
            raise ServiceError("the HTTP server is already running")
        self._server = HttpServer(self._app, self._observer, host, port)
        return self._server.address

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain and stop: finish the open round, then close the server.

        Idempotent; :meth:`serve_http` may be called again afterwards.
        """
        self._stop.set()
        if self._ingest_thread is not None:
            self._ingest_thread.join(timeout=timeout)
            self._ingest_thread = None
        if self._server is not None:
            self._server.close(timeout)
            self._server = None
