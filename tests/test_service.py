"""Always-on mapping service: equivalence, determinism, and edge cases."""

from __future__ import annotations

import http.client
import inspect
import json
import threading
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.anycast.catchment import CatchmentAccumulator
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError, ServiceError
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN
from repro.load.windowed import LoadWindow
from repro.obs import Observer
from repro.service import (
    MappingService,
    MeasurementState,
    ReplyBatch,
    RoundEnd,
    RoundStart,
    batch_replay,
    replay_feed,
)
from repro.service.http import JsonApp, render_json
from tests import catchment_model as model

ROUNDS = 4
WINDOW = 3
BATCH = 17


@pytest.fixture(scope="module")
def estimate(broot_tiny):
    return LoadEstimate(broot_tiny.day_load("svc-day"))


@pytest.fixture(scope="module")
def universe(broot_verfploeter):
    return np.array(broot_verfploeter.hitlist.blocks, dtype=np.uint64)


def build_state(broot_routing, universe, estimate, **kwargs):
    kwargs.setdefault("window_rounds", WINDOW)
    kwargs.setdefault("ring_size", ROUNDS + 1)
    return MeasurementState(
        broot_routing.policy.site_codes, universe, estimate, **kwargs
    )


@pytest.fixture(scope="module")
def served(broot_verfploeter, broot_routing, universe, estimate):
    """One fully ingested daemon (module-scoped: tests only read views)."""
    state = build_state(broot_routing, universe, estimate)
    feed = replay_feed(
        broot_verfploeter, routing=broot_routing, rounds=ROUNDS,
        batch_size=BATCH,
    )
    service = MappingService(state, feed)
    assert service.ingest() == ROUNDS
    return service


@pytest.fixture(scope="module")
def batch_rounds(broot_verfploeter, broot_routing):
    """The same rounds measured by the batch scanner (the reference)."""
    return [
        broot_verfploeter.run_scan(
            routing=broot_routing,
            round_id=round_id,
            start_time=round_id * 900.0,
        )
        for round_id in range(ROUNDS)
    ]


class TestIncrementalEquivalence:
    """The streamed state is bit-identical to a batch recompute."""

    def test_catchment_matches_folded_batch_rounds(
        self, served, batch_rounds, broot_routing, universe
    ):
        merged = {}
        for scan in batch_rounds:
            merged.update(dict(scan.catchment.items()))
        view = served.state.view
        streamed = {block: site for block, site in view.catchment.items()}
        assert streamed == merged

    def test_per_round_cleaning_counts_match_batch_scans(
        self, served, batch_rounds
    ):
        for record, scan in zip(served.state.view.rounds, batch_rounds):
            assert record.round_id == scan.round_id
            assert record.kept == scan.stats.kept
            assert record.wrong_round == scan.stats.wrong_round
            assert record.unsolicited == scan.stats.unsolicited
            assert record.late == scan.stats.late
            assert record.duplicates == scan.stats.duplicates

    def test_round_load_bit_identical_to_reference_join(
        self, served, batch_rounds, broot_routing, estimate
    ):
        # Reference: fold rounds 0..r into a plain dict and weigh it
        # block by block.  The service's columnar join over its
        # accumulator snapshot must produce the very same floats.
        site_codes = broot_routing.policy.site_codes
        merged = {}
        for record, scan in zip(served.state.view.rounds, batch_rounds):
            merged.update(dict(scan.catchment.items()))
            reference = model.site_load(site_codes, merged, estimate)
            for code in [*site_codes, UNKNOWN]:
                assert record.load.daily_of(code) == reference.daily_of(code)
                assert np.array_equal(
                    record.load.hourly_of(code), reference.hourly_of(code)
                )

    def test_window_aggregate_equals_batch_resum(self, served, broot_routing):
        view = served.state.view
        rounds_in_window = view.rounds[-view.window_size:]
        window = LoadWindow(broot_routing.policy.site_codes, view.window_size)
        for record in rounds_in_window:
            window.push(record.load)
        reference = window.aggregate()
        for code in [*view.site_codes, UNKNOWN]:
            assert view.window_load.daily_of(code) == reference.daily_of(code)
            assert np.array_equal(
                view.window_load.hourly_of(code), reference.hourly_of(code)
            )

    def test_batch_replay_helper_matches_streamed_state(
        self, served, batch_rounds, broot_verfploeter, broot_routing, universe
    ):
        engine = broot_verfploeter.engine_for(broot_routing)
        columnar_rounds = [
            engine.run_scan(round_id=r, start_time=r * 900.0).catchment
            for r in range(ROUNDS)
        ]
        reference = batch_replay(
            broot_routing.policy.site_codes, universe, columnar_rounds
        )
        view = served.state.view
        assert np.array_equal(
            reference.site_index_array, view.catchment.site_index_array
        )


class TestDeterminism:
    """Two same-seed daemons answer every endpoint byte-identically."""

    def test_two_daemons_byte_identical_responses(
        self, broot_tiny, broot_routing, universe, estimate
    ):
        def boot():
            verfploeter = Verfploeter(broot_tiny.internet, broot_tiny.service)
            state = build_state(broot_routing, universe, estimate)
            feed = replay_feed(
                verfploeter, routing=broot_routing, rounds=ROUNDS,
                batch_size=BATCH,
            )
            service = MappingService(state, feed)
            service.ingest()
            return service

        first, second = boot(), boot()
        sample_blocks = first.state.view.catchment.mapped_block_array()[:5]
        paths = [
            ("/v1/load", ""),
            ("/v1/diff", "rounds=1"),
            ("/v1/diff", f"rounds={ROUNDS - 1}"),
            ("/v1/health", ""),
        ] + [(f"/v1/catchment/{int(b)}", "") for b in sample_blocks]
        for path, query in paths:
            assert first.app.respond("GET", path, query) == second.app.respond(
                "GET", path, query
            )

    def test_catchment_body_is_the_canonical_render(self, served):
        # The handler writes its body directly; it must stay byte-equal
        # to ``render_json`` of the same four keys, ``null`` site included.
        view = served.state.view
        catchment = view.catchment
        expected = dict(catchment.items())
        unmapped = int(catchment.universe[catchment.site_index_array < 0][0])
        for block in (unmapped, 0, 2**64 - 1):
            assert block not in expected
            expected[block] = None
        for block, site in expected.items():
            status, body = served.app.respond("GET", f"/v1/catchment/{block}")
            assert status == 200
            assert body == render_json({
                "block": block,
                "generation": view.generation,
                "round_id": view.rounds[-1].round_id,
                "site": site,
            })


class TestEdgeCases:
    def test_query_before_first_complete_round(
        self, broot_routing, universe, estimate
    ):
        state = build_state(broot_routing, universe, estimate)
        service = MappingService(state, iter(()))
        for path in ("/v1/load", "/v1/catchment/1234", "/v1/diff"):
            status, body = service.app.respond("GET", path)
            assert status == 409
            assert json.loads(body)["error"]["code"] == "no-rounds"
        status, body = service.app.respond("GET", "/v1/health")
        assert status == 200
        assert json.loads(body)["rounds_completed"] == 0

    def test_empty_diff_window(self, broot_verfploeter, broot_routing,
                               universe, estimate):
        state = build_state(broot_routing, universe, estimate)
        service = MappingService(
            state,
            replay_feed(broot_verfploeter, routing=broot_routing, rounds=1),
        )
        service.ingest()
        status, body = service.app.respond("GET", "/v1/diff", "rounds=1")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "empty-window"

    def test_measurement_id_rollover_mid_stream(
        self, broot_verfploeter, broot_routing, universe, estimate
    ):
        state = build_state(broot_routing, universe, estimate)
        feed = replay_feed(
            broot_verfploeter, routing=broot_routing, rounds=2,
            start_round=65535, batch_size=BATCH,
        )
        assert MappingService(state, feed).ingest() == 2
        view = state.view
        assert [record.round_id for record in view.rounds] == [65535, 65536]
        # Both sides of the 16-bit identifier wrap kept real replies and
        # the post-wrap round matches its batch twin exactly.
        assert all(record.kept > 0 for record in view.rounds)
        scan = broot_verfploeter.run_scan(
            routing=broot_routing, round_id=65536, start_time=900.0,
        )
        assert view.rounds[-1].kept == scan.stats.kept

    def test_poisoned_batch_is_quarantined_not_fatal(
        self, broot_verfploeter, broot_routing, universe, estimate
    ):
        observer = Observer.collecting()
        state = build_state(
            broot_routing, universe, estimate, observer=observer
        )
        events = list(
            replay_feed(
                broot_verfploeter, routing=broot_routing, rounds=1,
                batch_size=BATCH,
            )
        )
        batches = [e for e in events if isinstance(e, ReplyBatch)]
        start = next(e for e in events if isinstance(e, RoundStart))
        state.begin_round(
            start.round_id, start.start_time, set(start.probed_addresses)
        )
        totals_before = len(state._accumulator)
        assert state.ingest_batch((object(),)) is None  # poisoned
        assert len(state._accumulator) == totals_before
        for batch in batches:
            assert state.ingest_batch(batch.replies) is not None
        record = state.end_round()
        assert record.quarantined_batches == 1
        assert state.view.quarantined_batches == 1
        assert record.kept > 0
        assert observer.metrics.value_of("service.quarantined_batches") == 1

    def test_batch_quarantined_at_apply_leaves_no_counts(
        self, broot_verfploeter, broot_routing, universe, estimate
    ):
        # A batch that cleans fine but cannot be *applied* (its replies
        # name a site the state does not know) used to stay in the
        # cleaner: kept counted, sources marked seen, and the genuine
        # replies that followed dropped as duplicates of nothing.
        events = list(
            replay_feed(
                broot_verfploeter, routing=broot_routing, rounds=1,
                batch_size=50,
            )
        )
        start = events[0]
        batches = [e.replies for e in events if isinstance(e, ReplyBatch)]
        poisoned = replace(batches[0], site_codes=("XXX",) * 2)

        def run(stream):
            state = build_state(broot_routing, universe, estimate)
            state.begin_round(
                start.round_id, start.start_time, start.probed_addresses
            )
            outcomes = [state.ingest_batch(batch) for batch in stream]
            return outcomes, state.end_round()

        outcomes, dirty = run([poisoned, *batches])
        _, clean = run(batches)
        assert outcomes[0] is None and None not in outcomes[1:]
        assert dirty.quarantined_batches == 1
        assert replace(
            dirty, quarantined_batches=0, catchment=None, load=None
        ) == replace(clean, catchment=None, load=None)
        assert np.array_equal(
            dirty.catchment.site_index_array, clean.catchment.site_index_array
        )
        for code in [*broot_routing.policy.site_codes, UNKNOWN]:
            assert dirty.load.daily_of(code) == clean.load.daily_of(code)

    def test_metrics_endpoint_satisfies_the_healthy_run_invariants(
        self, broot_tiny, broot_routing, universe, estimate
    ):
        observer = Observer.collecting()
        verfploeter = Verfploeter(
            broot_tiny.internet, broot_tiny.service, observer=observer
        )
        state = build_state(broot_routing, universe, estimate, observer=observer)
        service = MappingService(
            state,
            replay_feed(
                verfploeter, routing=broot_routing, rounds=3, batch_size=BATCH
            ),
            observer=observer,
        )
        assert service.ingest() == 3
        status, body = service.app.respond("GET", "/v1/metrics")
        assert status == 200
        counters = json.loads(body)["counters"]
        received = counters["collector.replies_received"]
        dropped = sum(
            value for key, value in counters.items()
            if key.startswith("cleaning.dropped{")
        )
        per_site = sum(
            value for key, value in counters.items()
            if key.startswith("collector.site_replies{")
        )
        # Conservation and coverage, as docs/observability.md states them.
        assert counters["cleaning.kept"] + dropped == received == per_site
        assert counters["probe.rounds_scheduled"] == 3
        assert counters["probe.probes_sent"] == 3 * len(universe)
        assert 0.3 < received / counters["probe.probes_sent"] < 1.0

    def test_concurrent_queries_match_quiesced_states(
        self, broot_tiny, broot_routing, universe, estimate
    ):
        # Quiesced references: one response per completed-round count.
        reference = Verfploeter(broot_tiny.internet, broot_tiny.service)
        ref_state = build_state(broot_routing, universe, estimate)
        ref_service = MappingService(
            ref_state,
            replay_feed(
                reference, routing=broot_routing, rounds=ROUNDS,
                batch_size=BATCH,
            ),
        )
        legal = {ref_service.app.respond("GET", "/v1/load")}
        for _ in range(ROUNDS):
            ref_service.ingest(max_rounds=1)
            legal.add(ref_service.app.respond("GET", "/v1/load"))

        # Live daemon: hammer /v1/load from reader threads during ingest.
        verfploeter = Verfploeter(broot_tiny.internet, broot_tiny.service)
        state = build_state(broot_routing, universe, estimate)
        service = MappingService(
            state,
            replay_feed(
                verfploeter, routing=broot_routing, rounds=ROUNDS,
                batch_size=1,
            ),
        )
        seen = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                seen.append(service.app.respond("GET", "/v1/load"))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        service.ingest()
        done.set()
        for thread in threads:
            thread.join()
        assert seen
        # Every concurrently observed response is byte-identical to one
        # of the quiesced per-round responses — never a torn view.
        assert set(seen) <= legal
        # And the stream finished on the final quiesced state.
        assert service.app.respond("GET", "/v1/load") in legal

    def test_shutdown_drains_open_round(
        self, broot_verfploeter, broot_routing, universe, estimate
    ):
        state = build_state(broot_routing, universe, estimate)
        round_started = threading.Event()

        def slow_feed():
            for event in replay_feed(
                broot_verfploeter, routing=broot_routing, rounds=ROUNDS,
                batch_size=BATCH,
            ):
                yield event
                if isinstance(event, RoundStart):
                    round_started.set()
                    # Let the main thread request shutdown mid-round.
                    round_started.wait()

        service = MappingService(state, slow_feed())
        service.start_ingest()
        assert round_started.wait(timeout=30.0)
        service.shutdown()
        # The open round was finished and published, never abandoned.
        assert not state.round_open
        assert state.view.rounds_completed >= 1
        assert state.view.rounds_completed < ROUNDS

    def test_a_feed_that_raises_mid_round_is_typed_counted_and_fatal(
        self, broot_verfploeter, broot_routing, universe, estimate
    ):
        """An error that is no ``ReproError`` out of the feed ends the
        background ingest as a ``ServiceError``, counted once, and the
        published view stays at the last completed round."""
        observer = Observer()
        state = build_state(broot_routing, universe, estimate, observer=observer)

        def broken_feed():
            for event in replay_feed(
                broot_verfploeter, routing=broot_routing, rounds=2, batch_size=BATCH,
            ):
                yield event
                if isinstance(event, ReplyBatch) and event.round_id == 1:
                    raise RuntimeError("feed broke")

        service = MappingService(state, broken_feed())
        service.start_ingest()
        with pytest.raises(ServiceError, match="RuntimeError: feed broke") as caught:
            service.wait_ingest()
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert observer.metrics.value_of("service.ingest.failed") == 1
        assert state.round_open
        assert state.view.rounds_completed == 1
        assert [record.round_id for record in state.view.rounds] == [0]

    def test_state_api_misuse_raises_service_errors(
        self, broot_routing, universe, estimate
    ):
        state = build_state(broot_routing, universe, estimate)
        with pytest.raises(ServiceError):
            state.ingest_batch(())
        with pytest.raises(ServiceError):
            state.end_round()
        state.begin_round(0, 0.0, set())
        with pytest.raises(ServiceError):
            state.begin_round(1, 900.0, set())

    @pytest.mark.parametrize(
        "argument,message",
        [
            (dict(rounds=0), "rounds must be >= 1"),
            (dict(batch_size=0), "batch_size must be >= 1"),
            (dict(interval_seconds=-5.0), "interval_seconds must be >= 0"),
            (dict(start_round=-1), "start_round must be >= 0"),
        ],
        ids=["zero-rounds", "zero-batch", "negative-interval", "negative-start-round"],
    )
    def test_replay_feed_checks_its_arguments_at_the_call(
        self, broot_verfploeter, argument, message
    ):
        """Raised by the call itself, not by the first ``next()`` on an
        ingest thread after the daemon already serves."""
        with pytest.raises(ServiceError, match=message):
            replay_feed(broot_verfploeter, **argument)

    def test_http_server_round_trip(
        self, broot_verfploeter, broot_routing, universe, estimate
    ):
        state = build_state(broot_routing, universe, estimate)
        service = MappingService(
            state,
            replay_feed(broot_verfploeter, routing=broot_routing, rounds=1),
        )
        host, port = service.serve_http()
        try:
            service.ingest()
            with urllib.request.urlopen(
                f"http://{host}:{port}/v1/health", timeout=30
            ) as response:
                assert response.status == 200
                document = json.loads(response.read())
            assert document["rounds_completed"] == 1
        finally:
            service.shutdown()


class TestThreadConfinement:
    """The deployment and the planner hold no locks: while the daemon
    runs, only its ingest thread enters them; its HTTP thread never does."""

    def test_only_the_ingest_thread_enters_the_deployment(
        self, broot_verfploeter, broot_routing, universe, estimate
    ):
        from repro.core.playbook import PlaybookPlanner

        watched = {
            inspect.getsourcefile(Verfploeter),
            inspect.getsourcefile(PlaybookPlanner),
        }
        calls = []  # (thread name, entered a watched file); append is atomic

        def hook(frame, event, arg):
            if event == "call":
                calls.append((
                    threading.current_thread().name,
                    frame.f_code.co_filename in watched,
                ))

        service = MappingService(
            build_state(broot_routing, universe, estimate),
            replay_feed(
                broot_verfploeter, routing=broot_routing, rounds=ROUNDS,
                batch_size=BATCH,
            ),
        )
        threading.setprofile(hook)
        try:
            connection = http.client.HTTPConnection(*service.serve_http(), timeout=30)
            service.start_ingest()
            for path in ("/v1/health", "/v1/load", "/v1/diff?rounds=1",
                         "/v1/metrics") * 3:  # 409s until a round completes
                connection.request("GET", path)
                connection.getresponse().read()
            service.wait_ingest()
            connection.close()
        finally:
            service.shutdown()
            threading.setprofile(None)
        threads = {name for name, _ in calls}
        assert {"repro-serve-ingest", "repro-serve-http"} <= threads
        assert {name for name, inside in calls if inside} == {"repro-serve-ingest"}


class TestWsgiLayer:
    """``JsonApp.respond`` without a socket (the class name is older than
    the WSGI front end's removal; kept so the test ids stay put)."""

    def test_unknown_path_and_wrong_method(self):
        app = JsonApp()
        app.get("/v1/thing/<name>", lambda request: {"name": request.params["name"]})
        status, body = app.respond("GET", "/v1/none")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-found"
        status, body = app.respond("POST", "/v1/thing/x")
        assert status == 405

    def test_path_captures_and_query(self):
        app = JsonApp()
        app.get(
            "/v1/thing/<name>",
            lambda request: {
                "name": request.params["name"],
                "n": request.query_int("n", default=2),
            },
        )
        status, body = app.respond("GET", "/v1/thing/abc", "n=7")
        assert status == 200
        assert json.loads(body) == {"name": "abc", "n": 7}
        status, body = app.respond("GET", "/v1/thing/abc", "n=zzz")
        assert status == 400

    def test_handler_crash_becomes_structured_500(self):
        observer = Observer.collecting()
        app = JsonApp(observer=observer)

        def boom(request):
            raise RuntimeError("kaboom")

        app.get("/v1/boom", boom)
        status, body = app.respond("GET", "/v1/boom")
        assert status == 500
        assert json.loads(body)["error"]["code"] == "internal-error"
        assert observer.metrics.value_of(
            "service.errors", kind="handler"
        ) == 1

    def test_render_json_is_canonical(self):
        assert render_json({"b": 1, "a": [1.5, None]}) == (
            b'{"a":[1.5,null],"b":1}\n'
        )


class TestAccumulatorAndWindowValidation:
    def test_accumulator_rejects_foreign_blocks(self):
        accumulator = CatchmentAccumulator(
            ["A"], np.array([10, 20], dtype=np.uint64)
        )
        with pytest.raises(ConfigurationError):
            accumulator.apply_blocks(
                np.array([15], dtype=np.uint64), np.array([0], dtype=np.int16)
            )

    def test_accumulator_last_write_wins_within_batch(self):
        accumulator = CatchmentAccumulator(
            ["A", "B"], np.array([10, 20], dtype=np.uint64)
        )
        changed = accumulator.apply_blocks(
            np.array([10, 10, 20], dtype=np.uint64),
            np.array([0, 1, 0], dtype=np.int16),
        )
        assert changed == 2
        snapshot = accumulator.snapshot()
        assert (snapshot.site_of(10), snapshot.site_of(20)) == ("B", "A")

    def test_window_rejects_mismatched_site_codes(self, served):
        window = LoadWindow(["NOT-A-SITE"], 2)
        with pytest.raises(ConfigurationError):
            window.push(served.state.view.rounds[-1].load)
