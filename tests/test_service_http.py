"""The daemon's ``selectors`` HTTP loop under hostile and awkward clients.

Every test talks to a real listening socket with raw bytes, so what is
pinned is the wire: the exact header set, keep-alive and close rules,
what a fault costs (a structured error body or a clean close, and a
``service.errors{kind=}`` / ``service.requests{status=}`` count) and
what it never costs (another client's answer, the published view).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.load.estimator import LoadEstimate
from repro.obs import Observer
from repro.service import MappingService, MeasurementState, replay_feed
from repro.service import http as service_http
from repro.service import routes
from repro.service.feed import RoundStart
from repro.service.http import HttpServer, JsonApp

ROUNDS = 4
TIMEOUT = 10.0


@pytest.fixture(scope="module")
def events(broot_verfploeter, broot_routing):
    """One 4-round reply stream, materialised once and replayed per test."""
    return list(
        replay_feed(
            broot_verfploeter, routing=broot_routing, rounds=ROUNDS, batch_size=64
        )
    )


@pytest.fixture(scope="module")
def new_service(broot_tiny, broot_verfploeter, broot_routing, events):
    """Factory: a fresh daemon over ``events`` (or another feed), not yet fed."""
    estimate = LoadEstimate(broot_tiny.day_load("svc-day"))
    universe = np.array(broot_verfploeter.hitlist.blocks, dtype=np.uint64)

    def build(feed=None):
        observer = Observer.collecting()
        state = MeasurementState(
            broot_routing.policy.site_codes, universe, estimate,
            window_rounds=3, ring_size=ROUNDS + 1, observer=observer,
        )
        return MappingService(
            state, events if feed is None else feed, observer=observer
        )

    return build


@pytest.fixture
def daemon(new_service):
    """A fully ingested daemon listening on an ephemeral loopback port."""
    service = new_service()
    service.address = service.serve_http()
    assert service.ingest() == ROUNDS
    yield service
    service.shutdown()


class Client:
    """A raw-socket HTTP client that reads exactly one response at a time."""

    def __init__(self, address, receive_buffer=None) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.settimeout(TIMEOUT)
        if receive_buffer is not None:  # must precede connect to bound the window
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, receive_buffer)
        self.sock.connect(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self):
        """``(status, head bytes, body bytes)`` of the next response."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, rest = self.buffer.partition(b"\r\n\r\n")
        length = int(
            next(
                line.split(b":")[1]
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
        )
        while len(rest) < length:
            self._fill()
            rest = self.buffer.partition(b"\r\n\r\n")[2]
        self.buffer = rest[length:]
        return int(head.split(b" ")[1]), head, rest[:length]

    def _fill(self) -> None:
        data = self.sock.recv(1 << 20)
        assert data, f"connection closed mid-response, had {self.buffer[:80]!r}"
        self.buffer += data

    def at_eof(self) -> bool:
        """True once the server has closed (and nothing unread remains)."""
        try:
            return not self.buffer and self.sock.recv(1) == b""
        except ConnectionResetError:
            return True
        finally:
            self.close()

    def drain(self) -> bytes:
        """Everything the server sends until it closes."""
        while True:
            data = self.sock.recv(1 << 20)
            if not data:
                self.close()
                return self.buffer
            self.buffer += data

    def close(self) -> None:
        self.sock.close()


def get(path: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"GET {path} {version}", "Host: t", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def wait_for(predicate, what: str) -> None:
    deadline = time.perf_counter() + TIMEOUT
    while not predicate():
        assert time.perf_counter() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def counter(service, name: str, **labels) -> int:
    return service.state.observer.metrics.value_of(name, **labels)


class TestWire:
    def test_keep_alive_reuses_the_connection_with_a_minimal_header_set(
        self, daemon
    ):
        client = Client(daemon.address)
        for _ in range(2):
            client.send(get("/v1/health"))
            status, head, body = client.response()
            assert status == 200
            assert head.split(b"\r\n") == [
                b"HTTP/1.1 200 OK",
                b"Content-Type: application/json; charset=utf-8",
                b"Content-Length: %d" % len(body),
                b"Connection: keep-alive",
            ]
            assert (200, body) == daemon.app.respond("GET", "/v1/health")
        client.close()

    def test_pipelined_requests_are_answered_in_order(self, daemon):
        client = Client(daemon.address)
        client.send(get("/v1/diff?rounds=2") + get("/v1/nope") + get("/v1/load"))
        assert client.response()[2] == daemon.app.respond(
            "GET", "/v1/diff", "rounds=2"
        )[1]
        assert client.response()[0] == 404
        assert client.response()[2] == daemon.app.respond("GET", "/v1/load")[1]
        client.close()

    @pytest.mark.parametrize(
        "request_bytes",
        [
            get("/v1/health", version="HTTP/1.0"),
            get("/v1/health", "Connection: close"),
            get("/v1/health", "connection: Keep-Alive, Close"),
        ],
    )
    def test_http_1_0_and_connection_close_end_the_connection(
        self, daemon, request_bytes
    ):
        client = Client(daemon.address)
        client.send(request_bytes)
        status, head, _ = client.response()
        assert status == 200
        assert head.endswith(b"\r\nConnection: close")
        assert client.at_eof()

    @pytest.mark.parametrize(
        "header, body, closes",
        [
            ("CONNECTION: Close", b"", True),
            ("Connection:  keep-alive, close", b"", True),
            ("connection:close", b"", True),
            ("Content-Length: 3", b"abc", True),
            ("Transfer-Encoding: chunked", b"", True),
            ("Content-Length: 0", b"", False),
            ("X-Connection: close", b"", False),
            ("Proxy-Connection: close", b"", False),
        ],
    )
    def test_only_the_closing_headers_end_the_connection(
        self, daemon, header, body, closes
    ):
        # Names match whole, after strip and lowercasing: look-alikes
        # such as ``X-Connection`` keep the connection open.
        client = Client(daemon.address)
        client.send(get("/v1/health", header) + body)
        status, head, _ = client.response()
        assert status == 200
        ending = b"close" if closes else b"keep-alive"
        assert head.endswith(b"\r\nConnection: " + ending)
        if closes:
            assert client.at_eof()
        else:
            client.send(get("/v1/health"))
            assert client.response()[0] == 200
            client.close()

    def test_request_delivered_one_byte_at_a_time(self, daemon):
        whole = Client(daemon.address)
        whole.send(get("/v1/load"))
        expected = whole.response()
        slow = Client(daemon.address)
        for byte in get("/v1/load"):
            slow.send(bytes([byte]))
        assert slow.response() == expected
        whole.close()
        slow.close()

    def test_percent_decoded_path_and_raw_query_reach_the_app(self, daemon):
        client = Client(daemon.address)
        client.send(get("/v1/%64iff?rounds=2"))
        assert client.response()[2] == daemon.app.respond(
            "GET", "/v1/diff", "rounds=2"
        )[1]
        client.send(get("/v1/catchment/%207"))
        status, _, body = client.response()
        assert status == 400
        assert "' 7'" in json.loads(body)["error"]["message"]
        client.close()


class TestFaults:
    """Each fault: a structured answer or a clean close, a count, no damage."""

    @pytest.fixture(autouse=True)
    def view_is_untouched(self, daemon):
        before = daemon.state.view
        yield
        assert daemon.state.view is before
        # The loop survived: a fresh client is still answered.
        client = Client(daemon.address)
        client.send(get("/v1/health"))
        assert client.response()[0] == 200
        client.close()

    @pytest.mark.parametrize(
        "garbage",
        [b"GET /v1/health\r\n\r\n", b"\x16\x03\x01 tls hello\r\n\r\n",
         b"GET /v1/health HTTP/2\r\n\r\n", b"\r\n\r\n"],
    )
    def test_malformed_request_line_is_a_400_and_a_close(self, daemon, garbage):
        client = Client(daemon.address)
        client.send(garbage)
        status, head, body = client.response()
        assert status == 400
        assert head.endswith(b"\r\nConnection: close")
        assert json.loads(body)["error"]["code"] == "bad-request"
        assert client.at_eof()
        assert counter(daemon, "service.errors", kind="bad-request") == 1
        assert counter(daemon, "service.requests", route="none", status=400) == 1

    @pytest.mark.parametrize("terminated", [False, True])
    def test_over_long_head_is_a_431_and_a_close(self, daemon, terminated):
        client = Client(daemon.address)
        padding = "X-Pad: " + "a" * service_http.MAX_HEAD_BYTES
        request_bytes = get("/v1/health", padding)
        client.send(request_bytes if terminated else request_bytes[:-4])
        status, _, body = client.response()
        assert status == 431
        assert json.loads(body)["error"]["code"] == "head-too-large"
        assert client.at_eof()
        assert counter(daemon, "service.errors", kind="head-too-large") == 1
        assert counter(daemon, "service.requests", route="none", status=431) == 1
        assert counter(daemon, "service.requests", route="/v1/health", status=200) == 0

    def test_head_of_exactly_the_limit_is_served(self, daemon):
        bare = len(get("/v1/health", "X-Pad: ")) - 4
        request_bytes = get(
            "/v1/health", "X-Pad: " + "a" * (service_http.MAX_HEAD_BYTES - bare)
        )
        assert len(request_bytes) == service_http.MAX_HEAD_BYTES + 4
        client = Client(daemon.address)
        client.send(request_bytes)
        assert client.response()[0] == 200
        client.close()

    def test_post_with_a_body_is_a_405_then_a_close(self, daemon):
        client = Client(daemon.address)
        smuggled = get("/v1/health")
        client.send(
            b"POST /v1/load HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n"
            % len(smuggled) + smuggled
        )
        status, head, body = client.response()
        assert status == 405
        assert head.endswith(b"\r\nConnection: close")
        assert json.loads(body)["error"]["code"] == "method-not-allowed"
        # The body was never read as a second request.
        assert client.at_eof()
        assert counter(daemon, "service.requests", route="/v1/load", status=405) == 1
        assert counter(daemon, "service.requests", route="/v1/health", status=200) == 0

    def test_peer_reset_mid_request_is_counted_and_survived(self, daemon):
        client = Client(daemon.address)
        client.send(b"GET /v1/hea")
        client.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        client.close()  # linger 0: the kernel sends RST, not FIN
        wait_for(
            lambda: counter(daemon, "service.errors", kind="reset") == 1,
            "the reset to be counted",
        )

    def test_peer_closing_mid_request_is_a_clean_close(self, daemon):
        client = Client(daemon.address)
        client.send(b"GET /v1/hea")
        client.close()
        probe = Client(daemon.address)
        probe.send(get("/v1/metrics"))
        counters = json.loads(probe.response()[2])["counters"]
        assert not any(name.startswith("service.errors") for name in counters)
        probe.close()

    def test_half_sent_request_does_not_stall_another_client(self, daemon):
        slow = Client(daemon.address)
        slow.send(b"GET /v1/load HTT")
        fast = Client(daemon.address)
        fast.send(get("/v1/load"))
        answered = fast.response()
        assert answered[0] == 200
        slow.send(b"P/1.1\r\nHost: t\r\n\r\n")
        assert slow.response() == answered
        slow.close()
        fast.close()

    def test_least_recently_active_connection_is_evicted_at_the_cap(
        self, daemon, monkeypatch
    ):
        monkeypatch.setattr(service_http, "MAX_CONNECTIONS", 3)
        clients = [Client(daemon.address) for _ in range(3)]
        for client in (clients[1], clients[0], clients[2]):
            client.send(get("/v1/health"))
            assert client.response()[0] == 200
        newcomer = Client(daemon.address)
        newcomer.send(get("/v1/health"))
        assert newcomer.response()[0] == 200
        assert clients[1].at_eof()
        assert counter(daemon, "service.errors", kind="evicted") == 1
        for client in (clients[0], clients[2]):
            client.send(get("/v1/health"))
            assert client.response()[0] == 200
            client.close()
        newcomer.close()


def test_client_that_never_reads_a_large_body_does_not_stall_another():
    # 16 MB cannot fit in the kernel's buffers for one connection (the
    # reader's is pinned small), so the loop must park the rest and move on.
    blob = "x" * (16 << 20)
    observer = Observer.collecting()
    app = JsonApp(observer=observer)
    app.get("/big", lambda request: {"blob": blob})
    app.get("/small", lambda request: {"ok": True})
    server = HttpServer(app, observer, "127.0.0.1", 0)
    try:
        stalled = Client(server.address, receive_buffer=1 << 16)
        stalled.send(get("/big") + get("/small"))
        other = Client(server.address)
        for _ in range(3):
            other.send(get("/small"))
            assert other.response()[2] == b'{"ok":true}\n'
        parked = [len(c.outbuf) for c in list(server._connections.values())]
        assert max(parked) > 1 << 20
        # Once it does read, the parked body arrives whole and in order.
        status, _, body = stalled.response()
        assert status == 200 and len(body) == len(blob) + len('{"blob":""}\n')
        assert stalled.response()[2] == b'{"ok":true}\n'
        stalled.close()
        other.close()
    finally:
        server.close(TIMEOUT)


def test_accepted_sockets_inherit_tcp_nodelay_from_the_listener():
    # The server sets TCP_NODELAY once, on the listener; this checks that
    # the platform hands it on to every accepted socket.
    observer = Observer.collecting()
    app = JsonApp(observer=observer)
    app.get("/small", lambda request: {"ok": True})
    server = HttpServer(app, observer, "127.0.0.1", 0)
    try:
        clients = [Client(server.address) for _ in range(2)]
        for client in clients:
            client.send(get("/small"))
            assert client.response()[0] == 200
        accepted = list(server._connections)
        assert len(accepted) == 2
        for sock in accepted:
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        for client in clients:
            client.close()
    finally:
        server.close(TIMEOUT)


def test_unrenderable_handler_result_is_a_500_not_a_dead_loop():
    observer = Observer.collecting()
    app = JsonApp(observer=observer)
    app.get("/bad", lambda request: {"value": object()})
    server = HttpServer(app, observer, "127.0.0.1", 0)
    try:
        client = Client(server.address)
        for _ in range(2):
            client.send(get("/bad"))
            status, _, body = client.response()
            assert status == 500
            assert json.loads(body)["error"]["code"] == "internal-error"
        client.close()
        assert observer.metrics.value_of("service.errors", kind="handler") == 2
        assert observer.metrics.value_of(
            "service.requests", route="/bad", status=500
        ) == 2
    finally:
        server.close(TIMEOUT)


class TestLifecycle:
    def test_shutdown_returns_promptly_with_idle_keep_alive_connections(
        self, new_service
    ):
        service = new_service()
        address = service.serve_http()
        clients = [Client(address) for _ in range(3)]
        for client in clients:
            client.send(get("/v1/health"))
            assert client.response()[0] == 200
        half_sent = Client(address)
        half_sent.send(b"GET /v1/hea")
        started = time.perf_counter()
        service.shutdown()
        assert time.perf_counter() - started < 2.0
        assert all(client.at_eof() for client in [*clients, half_sent])
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=TIMEOUT)

    def test_shutdown_is_idempotent_and_serve_http_works_again(self, new_service):
        service = new_service()
        service.shutdown()
        first = service.serve_http()
        with pytest.raises(ServiceError):
            service.serve_http()
        service.shutdown()
        service.shutdown()
        second = service.serve_http()
        try:
            with pytest.raises(OSError):
                socket.create_connection(first, timeout=TIMEOUT)
            client = Client(second)
            client.send(get("/v1/health"))
            assert client.response()[0] == 200
            client.close()
        finally:
            service.shutdown()

    def test_queries_during_ingest_see_only_published_views(
        self, new_service, events
    ):
        # Quiesced references: /v1/load after 0..ROUNDS completed rounds.
        reference = new_service()
        legal = [reference.app.respond("GET", "/v1/load")]
        for _ in range(ROUNDS):
            reference.ingest(max_rounds=1)
            legal.append(reference.app.respond("GET", "/v1/load"))

        mid_round = threading.Event()
        resume = threading.Event()

        def gated_feed():
            for event in events:
                yield event
                if isinstance(event, RoundStart):
                    mid_round.set()
                    assert resume.wait(TIMEOUT)
                    resume.clear()

        service = new_service(gated_feed())
        client = Client(service.serve_http())
        service.start_ingest()
        try:
            for completed in range(ROUNDS):
                assert mid_round.wait(TIMEOUT)
                mid_round.clear()
                client.send(get("/v1/health") + get("/v1/load"))
                health = json.loads(client.response()[2])
                assert health["round_open"] is True
                assert health["rounds_completed"] == completed
                status, _, body = client.response()
                assert (status, body) == legal[completed]
                resume.set()
            service.wait_ingest()
            client.send(get("/v1/load"))
            status, _, body = client.response()
            assert (status, body) == legal[ROUNDS]
        finally:
            resume.set()
            client.close()
            service.shutdown()

    def test_wait_ingest_reraises_what_ended_the_ingest(self, new_service):
        def broken_feed():
            yield "not an event"

        service = new_service(broken_feed())
        service.start_ingest()
        with pytest.raises(ServiceError, match="unknown feed event"):
            service.wait_ingest()


SEQUENCE_PATHS = (
    "/v1/load", "/v1/diff?rounds=1", "/v1/diff?rounds=3", "/v1/diff?rounds=99",
    "/v1/catchment/not-a-block", "/v1/catchment/0", "/v1/nothing", "/v1/diff?rounds=1_0",
)


class TestChunking:
    @pytest.fixture(scope="class")
    def quiet_daemon(self, new_service):
        service = new_service()
        service.address = service.serve_http()
        service.ingest()
        yield service
        service.shutdown()

    @staticmethod
    def exchange(address, chunks) -> bytes:
        client = Client(address)
        for chunk in chunks:
            client.send(chunk)
        return client.drain()

    @settings(max_examples=25, deadline=None)
    @given(
        paths=st.lists(st.sampled_from(SEQUENCE_PATHS), min_size=1, max_size=6),
        cuts=st.lists(st.integers(min_value=1, max_value=400), max_size=12),
    )
    def test_any_chunking_yields_the_unchunked_bytes(
        self, quiet_daemon, paths, cuts
    ):
        stream = b"".join(get(path) for path in paths[:-1]) + get(
            paths[-1], "Connection: close"
        )
        bounds = sorted({0, len(stream), *(cut % len(stream) for cut in cuts)})
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        whole = self.exchange(quiet_daemon.address, [stream])
        assert whole.count(b"HTTP/1.1 ") == len(paths)
        assert self.exchange(quiet_daemon.address, chunks) == whole


class TestBoundedBookkeeping:
    def test_requests_grow_neither_the_trace_nor_the_metric_set(self, daemon):
        paths = [
            "/v1/health", "/v1/load", "/v1/diff?rounds=1", "/v1/metrics",
            "/v1/nothing", "/v1/diff?rounds=0",
        ]
        blocks = daemon.state.view.catchment.mapped_block_array()
        observer = daemon.state.observer
        client = Client(daemon.address)

        def one_pass(offset: int) -> None:
            for index, path in enumerate(paths):
                client.send(get(path) + get(f"/v1/catchment/{blocks[offset + index]}"))
                client.response()
                assert client.response()[0] == 200

        one_pass(0)
        spans = len([span.name for span in observer.tracer.walk()])
        metrics = len(observer.metrics)
        for offset in range(1, 167):
            one_pass(offset)  # 166 x 12 = 1,992 more requests, all new blocks
        assert len([span.name for span in observer.tracer.walk()]) == spans
        assert len(observer.metrics) == metrics
        assert "service.request" not in [span.name for span in observer.tracer.walk()]
        assert counter(
            daemon, "service.requests", route="/v1/catchment/<block>", status=200
        ) == 167 * len(paths)
        client.close()


class TestDecimalParsing:
    @pytest.mark.parametrize(
        "raw",
        ["1_000", "+7", " 7", "7 ", "٣", "-0", "0x10", "1e3", "9" * 5000, str(2**64)],
    )
    def test_block_must_be_ascii_digits_in_uint64_range(self, daemon, raw):
        status, body = daemon.app.respond("GET", f"/v1/catchment/{raw}")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-block"

    @pytest.mark.parametrize("raw", ["1_0", "+1", " 1", "١", "1.0", "--1", "-", ""])
    def test_rounds_must_be_ascii_digits(self, daemon, raw):
        status, body = daemon.app.respond("GET", "/v1/diff", f"rounds={raw}")
        assert status == 400
        assert "must be an integer" in json.loads(body)["error"]["message"]

    def test_negative_rounds_reach_the_minimum_check(self, daemon):
        status, body = daemon.app.respond("GET", "/v1/diff", "rounds=-1")
        assert status == 400
        assert "must be >= 1" in json.loads(body)["error"]["message"]

    def test_plain_and_zero_padded_decimals_still_parse(self, daemon):
        block = int(daemon.state.view.catchment.mapped_block_array()[0])
        plain = daemon.app.respond("GET", f"/v1/catchment/{block}")
        assert plain[0] == 200
        assert daemon.app.respond("GET", f"/v1/catchment/00{block}") == plain
        assert daemon.app.respond("GET", "/v1/diff", "rounds=01")[0] == 200


class TestMemo:
    def test_view_bodies_are_rendered_once_and_equal_a_fresh_render(
        self, new_service, monkeypatch
    ):
        calls = []
        real = routes._site_load_document

        def counting(load, site_codes):
            calls.append(load)
            return real(load, site_codes)

        monkeypatch.setattr(routes, "_site_load_document", counting)
        service = new_service()
        seen = set()
        for completed in range(1, ROUNDS + 1):
            service.ingest(max_rounds=1)
            view = service.state.view
            assert view.rendered == {}  # rendered on first request, not at publish
            queries = [("/v1/load", "")]
            if completed > 1:
                queries.append(("/v1/diff", "rounds=1"))
            for path, query in queries:
                first = service.app.respond("GET", path, query)
                rendered_calls = len(calls)
                assert service.app.respond("GET", path, query) == first
                assert len(calls) == rendered_calls
                view.rendered.clear()
                assert service.app.respond("GET", path, query) == first
                assert first[0] == 200 and first not in seen
                seen.add(first)
            assert json.loads(service.app.respond("GET", "/v1/load")[1])[
                "round_id"
            ] == view.rounds[-1].round_id
        # Errors and per-request answers are never memoised.
        view = service.state.view
        service.app.respond("GET", "/v1/diff", "rounds=99")
        service.app.respond("GET", "/v1/health")
        service.app.respond("GET", "/v1/catchment/0")
        assert sorted(map(str, view.rendered)) == ["('diff', 1)", "load"]
