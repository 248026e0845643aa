#!/usr/bin/env python3
"""Smoke-test the always-on mapping service over real HTTP.

Boots two same-seed daemons on a tiny scenario, drives each through the
same simulated reply stream, queries every ``/v1`` endpoint over one
keep-alive ``http.client`` connection per daemon (the ephemeral port
the server bound), then sends ``FRESH_GETS`` catchment GETs on fresh
connections (connect, one GET, close: the benchmark's traffic shape),
and asserts:

- every endpoint answers 200 with well-formed JSON, and the error
  paths answer structured 4xx, all on that one connection;
- load fractions sum to 1.0 with the ``UNK`` bucket included;
- ``/v1/metrics`` satisfies Conservation (``cleaning.kept`` + every
  ``cleaning.dropped`` == ``collector.replies_received``), and the two
  daemons — asked the same things in the same order — report equal
  ``counters``;
- the two daemons' data-endpoint responses, fresh-connection ones
  included, are **byte-identical** — status line, headers and body: the
  service determinism contract, end to end through the HTTP stack;
- ``service.requests{route=/v1/catchment/<block>,status=200}`` counts
  every catchment GET sent.

Stdlib + repro only.  Run as ``python tools/serve_smoke.py`` (or
``make serve-smoke``); exits non-zero with a message on any failure.
"""

from __future__ import annotations

import http.client
import json
import sys
from typing import Dict, List, Tuple

import numpy as np

from repro.core.scenarios import broot_like
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.obs import Observer
from repro.service import MappingService, MeasurementState, replay_feed

ROUNDS = 3
#: Catchment GETs sent one per fresh connection, after the keep-alive run.
FRESH_GETS = 50
ENDPOINTS = (
    "/v1/health",
    "/v1/load",
    "/v1/diff?rounds=1",
    "/v1/metrics",
)

#: Endpoints whose answers carry run-local counters (request tallies);
#: every other 200 answer must be byte-identical across same-seed daemons.
RUN_LOCAL_ENDPOINTS = ("/v1/health", "/v1/metrics")

ERROR_PATHS = (
    ("/v1/catchment/not-a-block", 400),
    ("/v1/catchment/1_000", 400),
    ("/v1/diff?rounds=0", 400),
    ("/v1/diff?rounds=99", 400),
    ("/v1/nothing-here", 404),
)

#: Everything of a response but the socket: what "byte-identical" compares.
Response = Tuple[int, int, str, List[Tuple[str, str]], bytes]


def boot_daemon() -> Tuple[MappingService, str, int]:
    """One fully ingested daemon on an ephemeral loopback port."""
    scenario = broot_like(scale="tiny", seed=7)
    observer = Observer.collecting()
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    routing = verfploeter.routing_for()
    estimate = LoadEstimate(scenario.day_load("smoke-day"))
    universe = np.array(verfploeter.hitlist.blocks, dtype=np.uint64)
    state = MeasurementState(
        routing.policy.site_codes,
        universe,
        estimate,
        window_rounds=2,
        ring_size=4,
        observer=observer,
    )
    feed = replay_feed(
        verfploeter, routing=routing, rounds=ROUNDS, batch_size=64
    )
    service = MappingService(state, feed, observer=observer)
    host, port = service.serve_http()
    service.ingest()
    return service, host, port


def fetch(connection: http.client.HTTPConnection, path: str) -> Response:
    """GET one path: (HTTP version, status, reason, headers, body bytes)."""
    connection.request("GET", path)
    response = connection.getresponse()
    body = response.read()
    return (
        response.version, response.status, response.reason,
        response.getheaders(), body,
    )


def fetch_fresh(host: str, port: int, paths: List[str]) -> Dict[str, Response]:
    """GET each path on a connection of its own: connect, one GET, close."""
    answers: Dict[str, Response] = {}
    for path in paths:
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            answers[path] = fetch(connection, path)
        finally:
            connection.close()
    return answers


def conservation_failures(counters: Dict[str, int]) -> List[str]:
    """docs/observability.md's Conservation invariant on one document."""
    received = counters.get("collector.replies_received", 0)
    accounted = counters.get("cleaning.kept", 0) + sum(
        value for key, value in counters.items()
        if key.startswith("cleaning.dropped{")
    )
    if received < 1 or accounted != received:
        return [
            f"/v1/metrics: kept + dropped = {accounted}, "
            f"collector.replies_received = {received}"
        ]
    return []


def main() -> int:
    """Run the smoke; returns a process exit code."""
    daemons = [boot_daemon() for _ in range(2)]
    failures: List[str] = []
    responses: List[Dict[str, Response]] = []
    fresh_responses: List[Dict[str, Response]] = []
    try:
        for service, host, port in daemons:
            connection = http.client.HTTPConnection(host, port, timeout=30)
            connection.connect()
            local_address = connection.sock.getsockname()
            block = int(service.state.view.catchment.mapped_block_array()[0])
            catchment_path = f"/v1/catchment/{block}"
            answers: Dict[str, Response] = {}
            for path in (*ENDPOINTS, catchment_path):
                answers[path] = fetch(connection, path)
                status, body = answers[path][1], answers[path][4]
                document = json.loads(body)
                if status != 200:
                    failures.append(f"{path}: expected 200, got {status}")
                    continue
                if path == "/v1/load":
                    shares = document["window"]["fractions"]
                    total = sum(shares.values())
                    if abs(total - 1.0) > 1e-9:
                        failures.append(
                            f"/v1/load fractions sum to {total!r}, not 1.0"
                        )
                    if "UNK" not in shares:
                        failures.append("/v1/load fractions missing UNK")
                if path == "/v1/diff?rounds=1" and document["stable"] < 1:
                    failures.append("diff reports no stable blocks on a tiny run")
                if path == "/v1/metrics":
                    failures.extend(conservation_failures(document["counters"]))
            for path, expect in ERROR_PATHS:
                _, status, _, _, body = fetch(connection, path)
                if status != expect:
                    failures.append(f"{path}: expected {expect}, got {status}")
                elif json.loads(body)["error"]["status"] != expect:
                    failures.append(f"{path}: unstructured error body {body!r}")
            if connection.sock is None or (
                connection.sock.getsockname() != local_address
            ):
                failures.append("the keep-alive connection did not survive the run")
            connection.close()
            mapped = service.state.view.catchment.mapped_block_array()
            fresh_paths = [
                f"/v1/catchment/{int(block)}"
                for block in mapped[:: max(1, len(mapped) // FRESH_GETS)][:FRESH_GETS]
            ]
            fresh = fetch_fresh(host, port, fresh_paths)
            failures.extend(
                f"{path}: expected 200 on a fresh connection, got {answer[1]}"
                for path, answer in fresh.items() if answer[1] != 200
            )
            metrics = fetch_fresh(host, port, ["/v1/metrics"])["/v1/metrics"]
            counted = json.loads(metrics[4])["counters"].get(
                "service.requests{route=/v1/catchment/<block>,status=200}", 0
            )
            if counted != 1 + len(fresh_paths):
                failures.append(
                    f"service.requests counted {counted} catchment answers, "
                    f"{1 + len(fresh_paths)} were sent"
                )
            responses.append(answers)
            fresh_responses.append(fresh)
    finally:
        for service, _, _ in daemons:
            service.shutdown()
    for first, second in (responses, fresh_responses):
        for path in sorted(set(first) | set(second)):
            if path in RUN_LOCAL_ENDPOINTS:
                continue
            if first.get(path) != second.get(path):
                failures.append(f"{path}: two same-seed daemons differ")
    counters = [
        json.loads(answers["/v1/metrics"][4])["counters"] for answers in responses
    ]
    if counters[0] != counters[1]:
        failures.append("/v1/metrics: two same-seed daemons' counters differ")
    if failures:
        for failure in failures:
            print(f"serve-smoke: FAIL: {failure}")
        return 1
    print(
        f"serve-smoke: OK ({ROUNDS} rounds x 2 daemons, "
        f"{len(ENDPOINTS) + 1} endpoints and {len(ERROR_PATHS)} error paths "
        f"on one keep-alive connection each, {FRESH_GETS} catchment GETs on "
        f"fresh connections, byte-identical data responses, "
        f"conserved and equal /v1/metrics counters)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
