"""The observability substrate: tracer, metrics, metadata.

Covers the primitives in isolation and then the observer threaded
through a real (tiny) pipeline — the two-run byte-identity of the
artifacts is the load-bearing property.
"""

from __future__ import annotations

import json

import pytest

from repro import NULL_OBSERVER, Observer, Verfploeter, broot_like
from repro.bgp.cache import RoutingCache
from repro.core.experiments import prepend_sweep
from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    TickClock,
    Tracer,
    metadata_fingerprint,
    run_metadata,
)
from repro.oracle.scan import wire_scan


class TestTickClock:
    def test_each_read_advances_one_tick(self):
        clock = TickClock()
        assert [clock(), clock(), clock()] == [0.0, 1.0, 2.0]

    def test_start_and_step_are_configurable(self):
        clock = TickClock(start=10.0, step=0.5)
        assert [clock(), clock()] == [10.0, 10.5]


class TestTracer:
    def test_spans_nest_and_record_attributes(self):
        tracer = Tracer()
        with tracer.span("outer", round_id=3) as outer:
            with tracer.span("inner") as inner:
                inner.set(items=7)
            outer.set(done=True)
        assert [span.name for span in tracer.walk()] == ["outer", "inner"]
        root = next(span for span in tracer.walk() if span.name == "outer")
        assert root.attributes == {"round_id": 3, "done": True}
        assert [child.name for child in root.children] == ["inner"]
        assert next(span for span in root.walk() if span.name == "inner").attributes == {"items": 7}

    def test_tick_timestamps_bracket_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = next(span for span in tracer.walk() if span.name == "outer"), next(span for span in tracer.walk() if span.name == "inner")
        assert outer.start < inner.start < inner.end < outer.end
        assert outer.duration == 3.0  # four tick reads

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert next(span for span in tracer.walk() if span.name == "doomed").end is not None

    def test_to_json_is_deterministic(self):
        def run():
            tracer = Tracer()
            with tracer.span("a", x=1):
                with tracer.span("b"):
                    pass
            return tracer.to_json(meta={"seed": 1})

        assert run() == run()
        payload = json.loads(run())
        assert payload["version"] == 1
        assert payload["meta"] == {"seed": 1}
        assert payload["spans"][0]["name"] == "a"

    def test_closed_spans_carry_wall_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
            with tracer.span("inner"):
                pass
        outer = next(span for span in tracer.walk() if span.name == "outer")
        assert outer.wall > 0.0
        assert all(span.wall >= 0.0 for span in outer.walk())
        assert 0.0 <= outer.self_wall <= outer.wall
        calls, total, own = tracer.wall_by_name()["inner"]
        assert calls == 2
        assert total == own == sum(child.wall for child in outer.children)

    def test_wall_time_stays_out_of_to_dict(self):
        tracer = Tracer()
        with tracer.span("a", x=1):
            pass
        (span,) = tracer.to_dict()["spans"]
        assert set(span) == {"name", "start", "end", "attributes", "children"}


class TestMetrics:
    def test_counter_gauge_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("replies").inc(3)
        registry.counter("replies").inc()
        registry.gauge("fraction", site="LAX").set(0.75)
        assert registry.value_of("replies") == 4
        assert registry.value_of("fraction", site="LAX") == 0.75
        assert registry.to_dict()["histograms"] == {}

    def test_label_encoding_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("drop", rule="late", site="LAX").inc()
        payload = json.loads(registry.to_json())
        (name,) = payload["counters"]
        assert name == "drop{rule=late,site=LAX}"

    def test_render_text_aligns_and_sorts(self):
        registry = MetricsRegistry()
        registry.counter("bbb").inc(2)
        registry.counter("a").inc(1)
        text = registry.render_text()
        lines = text.splitlines()
        assert lines[0].startswith("metrics")
        assert lines[1].strip().startswith("a")

    def test_null_metrics_absorb_everything(self):
        metrics = NULL_OBSERVER.metrics
        metrics.counter("x").inc()
        metrics.gauge("y", site="Z").set(1.0)
        assert len(metrics) == 0
        assert metrics.value_of("x") == 0
        assert metrics.to_json() == MetricsRegistry().to_json()
        assert metrics.render_text() == "metrics: (empty)"

    def test_kind_clash_is_a_configuration_error(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(ConfigurationError, match="already registered as counter"):
            registry.gauge("x")
        gauge = registry.gauge("g")
        assert registry.gauge("g") is gauge


class TestRunMetadata:
    def test_fingerprint_keys_on_identity_only(self):
        base = run_metadata(scenario="broot", scale="tiny", seed=7)
        extra = run_metadata(scenario="broot", scale="tiny", seed=7, rounds=96)
        assert base["fingerprint"] == extra["fingerprint"]
        assert extra["rounds"] == 96
        other = run_metadata(scenario="broot", scale="tiny", seed=8)
        assert other["fingerprint"] != base["fingerprint"]

    def test_fingerprint_is_order_insensitive(self):
        assert metadata_fingerprint({"a": 1, "b": 2}) == metadata_fingerprint(
            {"b": 2, "a": 1}
        )


@pytest.fixture(scope="module")
def observed_scan():
    scenario = broot_like(scale="tiny")
    observer = Observer.collecting()
    vp = Verfploeter(scenario.internet, scenario.service, observer=observer)
    scan = vp.run_scan()
    return scan, observer


class TestPipelineInstrumentation:
    def test_scan_emits_the_documented_span_tree(self):
        """The packet-level oracle, asked for by name, keeps its tree."""
        scenario = broot_like(scale="tiny")
        observer = Observer.collecting()
        vp = Verfploeter(scenario.internet, scenario.service, observer=observer)
        wire_scan(vp, vp.routing_for())
        root = next(span for span in observer.tracer.walk() if span.name == "scan.round")
        children = [child.name for child in root.children]
        assert children == [
            "probe.schedule", "scan.probe_replies", "collector.merge",
            "cleaning.pass", "catchment.map",
        ]
        assert "fastscan.round" not in [span.name for span in observer.tracer.walk()]

    def test_default_scan_emits_the_engine_span_tree(self, observed_scan):
        """However small the hitlist (1,514 blocks here), the default
        scan is the columnar engine: no packet-level span, no per-site
        capture counter."""
        scan, observer = observed_scan
        assert scan.stats.probes_sent <= 5_000
        assert [span.name for span in observer.tracer.walk()] == [
            "hitlist.build", "bgp.propagate.full", "fastscan.invariant",
            "fastscan.precompute", "fastscan.round",
        ]
        assert "collector.site_replies" not in observer.metrics.to_json()

    def test_reply_conservation(self, observed_scan):
        _, observer = observed_scan
        metrics = observer.metrics
        received = metrics.value_of("collector.replies_received")
        kept = metrics.value_of("cleaning.kept")
        dropped = sum(
            metrics.value_of("cleaning.dropped", rule=rule) or 0
            for rule in ("wrong_round", "unsolicited", "late", "duplicate")
        )
        assert kept + dropped == received
        assert metrics.value_of("probe.probes_sent") >= received

    def test_catchment_fractions_match_scan(self, observed_scan):
        scan, observer = observed_scan
        for site, fraction in scan.catchment.fractions().items():
            recorded = observer.metrics.value_of(
                "catchment.fraction", site=site
            )
            assert recorded == pytest.approx(fraction)

    def test_null_observer_records_nothing(self):
        scenario = broot_like(scale="tiny")
        vp = Verfploeter(scenario.internet, scenario.service)
        vp.run_scan()
        assert vp.observer is NULL_OBSERVER
        assert [span.name for span in NULL_OBSERVER.tracer.walk()] == []
        assert NULL_OBSERVER.tracer.to_json() == Tracer().to_json()
        assert len(NULL_OBSERVER.metrics) == 0

    def test_two_seeded_runs_emit_identical_artifacts(self):
        def run():
            scenario = broot_like(scale="tiny")
            observer = Observer.collecting()
            vp = Verfploeter(
                scenario.internet, scenario.service, observer=observer
            )
            vp.run_scan()
            meta = run_metadata(
                scenario="broot", scale="tiny", seed=scenario.internet.seed
            )
            return (
                observer.tracer.to_json(meta=meta),
                observer.metrics.to_json(meta=meta),
            )

        assert run() == run()


class TestRoutingCacheCounters:
    def test_sweep_routes_in_one_lattice_batch(self):
        scenario = broot_like(scale="tiny")
        observer = Observer.collecting()
        vp = Verfploeter(
            scenario.internet, scenario.service, observer=observer
        )
        cache = RoutingCache(observer=observer)
        prepend_sweep(
            vp, scenario.atlas,
            configs=[("baseline", {}), ("+1 MIA", {"MIA": 1})],
            cache=cache,
        )
        metrics = observer.metrics
        # Both configs are full computes of one lattice propagation.
        assert metrics.value_of("routing.cache.full_computes") == 2
        assert metrics.value_of("routing.lattice_configs") == 2
        assert metrics.value_of("routing.cache.delta_computes") == 0
        names = [span.name for span in observer.tracer.walk()]
        assert names.count("bgp.propagate.lattice") == 1
        assert "bgp.propagate.delta" not in names
