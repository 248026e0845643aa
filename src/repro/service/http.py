"""Zero-dependency JSON-over-HTTP plumbing for the mapping service.

No framework: a :class:`JsonApp` is a list of routes — HTTP method plus
a path template like ``/v1/catchment/<block>`` — each mapped to a
handler taking a :class:`Request` and returning a JSON-serialisable
object or already rendered body bytes.  Everything the app emits is
JSON with sorted keys, *including* errors: handlers raise
:class:`~repro.errors.HttpError` for structured 4xx responses, unknown
paths get a 404 document, wrong methods a 405, and an unexpected
handler exception is caught, counted, and rendered as an opaque 500 —
a bad request must never take the daemon down.

:class:`HttpServer` puts an app on a socket: HTTP/1.1 keep-alive from
one thread running one stdlib ``selectors`` loop.

Determinism: responses are pure functions of service state and the
request — ``json.dumps(..., sort_keys=True)`` with fixed separators,
no timestamps, no object ids, no ``Date:`` header — so two same-seed
daemons fed the same stream answer every data endpoint byte-identically,
status line and headers included.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import threading
from http import HTTPStatus
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import unquote

from repro.errors import HttpError
from repro.obs import NULL_OBSERVER, Counter, Observer

#: ``<name>`` placeholders in route templates become path captures.
_PLACEHOLDER = re.compile(r"<([a-z_]+)>")
#: What ``int()`` may be given: it alone also takes ``1_000``, ``+7``, ``" 7"``
#: and ``٣``.  ASCII digits only, and no more of them than a uint64 has.
DECIMAL = re.compile(r"-?[0-9]{1,20}")

#: Longest request head (request line + headers) a client may send.
MAX_HEAD_BYTES = 8192
#: Open connections kept; one more evicts the least recently active.
MAX_CONNECTIONS = 256

_RECV_BYTES = 65536
_HEAD_END = b"\r\n\r\n"
#: The only request headers read: the ones that decide whether to close.
_CLOSING_FIELDS = frozenset(("connection", "content-length", "transfer-encoding"))
#: Reason phrase of every status code, for the status line.
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_RESPONSE_HEAD = (
    "HTTP/1.1 %d %s\r\nContent-Type: application/json; charset=utf-8\r\n"
    "Content-Length: %d\r\nConnection: %s\r\n\r\n"
)


def render_json(payload: object) -> bytes:
    """Canonical JSON encoding: sorted keys, fixed separators, newline."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def error_body(status: int, code: str, message: str) -> Dict[str, object]:
    """The structured error document every non-2xx response carries."""
    return {"error": {"status": status, "code": code, "message": message}}


class Request:
    """One parsed request: path captures and query parameters."""

    def __init__(
        self,
        path: str,
        params: Dict[str, str],
        query: Dict[str, str],
    ) -> None:
        self.path = path
        self.params = params
        self.query = query

    def query_int(
        self,
        name: str,
        default: Optional[int] = None,
        minimum: Optional[int] = None,
    ) -> Optional[int]:
        """Integer query parameter, or ``default`` when absent.

        Malformed or out-of-range values raise a 400
        :class:`~repro.errors.HttpError` naming the parameter.
        """
        raw = self.query.get(name)
        if raw is None:
            return default
        if DECIMAL.fullmatch(raw) is None:
            raise HttpError(
                400, "bad-parameter", f"query parameter {name!r} must be an integer"
            )
        value = int(raw)
        if minimum is not None and value < minimum:
            raise HttpError(
                400, "bad-parameter",
                f"query parameter {name!r} must be >= {minimum}",
            )
        return value


def _parse_query(raw: str) -> Dict[str, str]:
    """Minimal query-string parsing (no repeats, no encoding surprises)."""
    query: Dict[str, str] = {}
    for part in raw.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        query[key] = value
    return query


def _compile_template(template: str) -> "re.Pattern":
    """Compile ``/v1/catchment/<block>`` into an anchored path regex.

    ``re.split`` on the placeholder pattern (which has one capture
    group) alternates literal text and placeholder names; literals are
    escaped, placeholders become named ``[^/]+`` captures.
    """
    parts = _PLACEHOLDER.split(template)
    compiled = [
        f"(?P<{part}>[^/]+)" if index % 2 else re.escape(part)
        for index, part in enumerate(parts)
    ]
    return re.compile("^" + "".join(compiled) + "$")


class _Route:
    """One compiled route: method, path regex, handler."""

    def __init__(self, method: str, template: str, handler: Callable) -> None:
        self.method = method
        self.template = template
        self.regex = _compile_template(template)
        self.handler = handler


class JsonApp:
    """Routes mapped to JSON handlers, answering one request at a time."""

    def __init__(self, observer: Optional[Observer] = None) -> None:
        self._routes: List[_Route] = []
        self._observer = observer if observer is not None else NULL_OBSERVER
        # ``service.requests`` per (route template, status), resolved once:
        # the registry's lookup renders and sorts the labels on every call.
        self._requests: Dict[Tuple[str, int], Counter] = {}

    def route(self, method: str, template: str, handler: Callable) -> None:
        """Register ``handler`` for ``method`` requests matching ``template``."""
        self._routes.append(_Route(method.upper(), template, handler))

    def get(self, template: str, handler: Callable) -> None:
        """Register a GET route."""
        self.route("GET", template, handler)

    def _count(self, route: str, status: int) -> None:
        """Count one answer under ``service.requests{route=,status=}``."""
        counter = self._requests.get((route, status))
        if counter is None:
            counter = self._requests[route, status] = self._observer.metrics.counter(
                "service.requests", route=route, status=status
            )
        counter.inc()

    def refuse(self, err: HttpError, route: str = "none") -> Tuple[int, bytes]:
        """Count and render the structured error answer for ``err``."""
        self._count(route, err.status)
        return err.status, render_json(error_body(err.status, err.code, err.message))

    def respond(
        self, method: str, path: str, query_string: str = ""
    ) -> Tuple[int, bytes]:
        """Answer one request: returns ``(status, body bytes)``.

        The HTTP loop, the tests and the smoke tool all come through
        here.  Requests are counted per route *template* and status —
        a bounded label set, never the raw path.
        """
        template, handler, match = "none", None, None
        for route in self._routes:
            match = route.regex.match(path)
            if match is not None:
                template = route.template
                if route.method == method:
                    handler = route.handler
                    break
        try:
            if template == "none":
                raise HttpError(404, "not-found", f"no such endpoint: {path}")
            if handler is None:
                raise HttpError(
                    405, "method-not-allowed", f"{method} is not supported here"
                )
            query = _parse_query(query_string)
            result = handler(Request(path, match.groupdict(), query))
            body = result if isinstance(result, bytes) else render_json(result)
        except HttpError as err:
            return self.refuse(err, template)
        except Exception:  # reprolint: disable=E302 — service boundary: a crashing handler must become a 500, not kill the daemon
            self._observer.metrics.counter("service.errors", kind="handler").inc()
            message = "unexpected error handling the request"
            return self.refuse(HttpError(500, "internal-error", message), template)
        self._count(template, 200)
        return 200, body


class _Connection:
    """One client: its socket, unparsed input and unsent output."""

    __slots__ = ("sock", "inbuf", "outbuf", "closing", "events")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.closing = False
        self.events = selectors.EVENT_READ  # what the selector waits for


class HttpServer:
    """A :class:`JsonApp` over HTTP/1.1, served by one ``selectors`` thread.

    A connection's next request is parsed only once its previous answer
    has left the out-buffer, and its socket read only when no complete
    request is buffered — so it holds at most one head, one ``recv`` and
    one body, and a peer that stops reading or sending waits alone.
    """

    def __init__(self, app: JsonApp, observer: Observer, host: str, port: int) -> None:
        self._app = app
        self._metrics = observer.metrics
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        # Accepted sockets inherit it (tests/test_service_http.py checks).
        self._listener.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._wake_recv, self._wake_send = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_recv, selectors.EVENT_READ)
        # Least recently active first: the eviction order at the cap.
        self._connections: Dict[socket.socket, _Connection] = {}
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-http", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._listener.getsockname()[:2]

    def close(self, timeout: float) -> None:
        """Wake the loop, which closes every socket it owns, and join it."""
        self._wake_send.send(b"\0")
        self._thread.join(timeout=timeout)
        self._wake_send.close()

    # -- the loop ----------------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                for key, _ in self._selector.select():
                    if key.fileobj is self._wake_recv:
                        return
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.fileobj in self._connections:  # not evicted since select
                        self._advance(key.data)
        finally:
            for connection in list(self._connections.values()):
                self._drop(connection)
            self._selector.close()
            self._listener.close()
            self._wake_recv.close()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the peer gave up between the event and the call
            return
        sock.setblocking(False)
        if len(self._connections) >= MAX_CONNECTIONS:
            self._drop(next(iter(self._connections.values())), "evicted")
        connection = self._connections[sock] = _Connection(sock)
        self._selector.register(sock, selectors.EVENT_READ, connection)
        # A client that sent its request with the handshake is answered
        # now, not one ``select`` later.
        self._advance(connection)

    def _drop(self, connection: _Connection, kind: Optional[str] = None) -> None:
        if kind is not None:
            self._metrics.counter("service.errors", kind=kind).inc()
        del self._connections[connection.sock]
        self._selector.unregister(connection.sock)
        connection.sock.close()

    def _advance(self, connection: _Connection) -> None:
        """Write, answer and read as far as this peer allows right now."""
        sock = connection.sock
        self._connections[sock] = self._connections.pop(sock)
        try:
            while True:
                if connection.outbuf:
                    del connection.outbuf[: sock.send(connection.outbuf)]
                    if connection.outbuf:
                        break
                if connection.closing:
                    return self._drop(connection)
                if not self._answer_next(connection):
                    data = sock.recv(_RECV_BYTES)
                    if not data:
                        return self._drop(connection)
                    connection.inbuf += data
        except BlockingIOError:
            pass
        except OSError:
            return self._drop(connection, "reset")
        events = selectors.EVENT_WRITE if connection.outbuf else selectors.EVENT_READ
        if events != connection.events:
            connection.events = events
            self._selector.modify(sock, events, connection)

    def _answer_next(self, connection: _Connection) -> bool:
        """Queue the answer to the next buffered request; False if none is whole."""
        inbuf = connection.inbuf
        end = inbuf.find(_HEAD_END, 0, MAX_HEAD_BYTES + len(_HEAD_END))
        refusal = None
        if end >= 0:
            lines = inbuf[:end].decode("iso-8859-1").split("\r\n")
            del inbuf[: end + len(_HEAD_END)]
            words = lines[0].split(" ")
            if len(words) != 3 or not words[2].startswith("HTTP/1."):
                refusal = HttpError(400, "bad-request", "malformed request line")
        elif len(inbuf) < MAX_HEAD_BYTES + len(_HEAD_END):
            return False
        else:
            message = f"request head exceeds {MAX_HEAD_BYTES} bytes"
            refusal = HttpError(431, "head-too-large", message)
        if refusal is not None:
            self._metrics.counter("service.errors", kind=refusal.code).inc()
            status, body = self._app.refuse(refusal)
            connection.closing = True
        else:
            fields: Dict[str, str] = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name in _CLOSING_FIELDS:
                    fields[name] = value.strip().lower()
            method, (path, _, query) = words[0].upper(), words[1].partition("?")
            path = unquote(path, "iso-8859-1")
            status, body = self._app.respond(method, path, query)
            # Bodies are never read, so a request that declares one (or
            # is not a GET at all) ends the connection after its answer.
            connection.closing = (
                method != "GET" or words[2] != "HTTP/1.1"
                or "close" in fields.get("connection", "")
                or fields.get("content-length", "0") != "0"
                or "transfer-encoding" in fields
            )
        ending = "close" if connection.closing else "keep-alive"
        head = _RESPONSE_HEAD % (status, _PHRASES[status], len(body), ending)
        connection.outbuf += head.encode("ascii") + body
        return True
