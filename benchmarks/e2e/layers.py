"""The traced run: per-layer metrics from spans around public calls.

Every pipeline of ``pipelines.py`` is run in-process under a
:class:`repro.obs.Tracer` on the ``perf_counter`` clock; the spans live
in memory and are written as ``traces/trace_<workload>.json`` at the
end.  A per-layer metric is a span's *self time* (its duration minus
the part its child spans cover), a median over same-named spans, or a
count read where the work happens.  Calls that are not on a workload's
operator path but measure a layer the ISSUE names (the vectorised
engine on ``stability_default``'s inputs, routing deltas on a fresh
cache, the warm pool) run under a ``bench.probes`` root span, which the
coverage check leaves out.

Every traced run measures *every* layer, whichever ``--workload`` it
was asked for: the driver's contract wants each per-layer metric from
each run, and a layer a workload bypasses has no honest number inside
that workload.  ``--workload`` picks the one whose decomposition is
audited: ``bench.trace_coverage`` (top-level spans plus interpreter
start, over the untraced child's ``wall_s``) and
``bench.tracing_overhead_fraction`` (pipeline under the tracer over the
same pipeline under ``NullTracer``).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import pipelines
import spec
import workloads
from repro.bgp.cache import RoutingCache
from repro.core.fastscan import FastScanEngine
from repro.core.playbook import enumerate_lattice
from repro.core.pool import ShardPool
from repro.core.sharding import (
    assert_scan_results_identical,
    run_sharded_series,
    sharded_weight_catchment,
)
from repro.core.tables import TableStore, attach_round_state
from repro.errors import EquivalenceError
from repro.obs import NullTracer, Observer, Span, Tracer
from repro.topology.validate import validate_internet

TRACES = os.path.join(workloads.HERE, "traces")
PROBES = "bench.probes"

#: Warm repetitions behind each ``*_ms`` median on the pool.
_WARM_REPS = 5
#: In-process requests behind each ``service.respond_us.*`` median.
_RESPOND_REPS = 200


def _echo(payload: object) -> object:
    """Pool task that does nothing: what is left is the pool's own cost."""
    return payload


# -- spans --------------------------------------------------------------------


def _walk(tracer: Tracer) -> Iterator[Span]:
    for root in tracer.roots:
        yield from root.walk()


def self_time(span: Span) -> float:
    """Seconds spent in ``span`` itself, outside its child spans."""
    return span.duration - sum(child.duration for child in span.children)


def self_times(tracer: Tracer, name: str) -> List[float]:
    """Self time of every span called ``name``, in record order."""
    return [self_time(span) for span in _walk(tracer) if span.name == name]


def top_level_s(tracer: Tracer) -> float:
    """Total duration of the operator-path spans (the probes left out)."""
    return sum(root.duration for root in tracer.roots if root.name != PROBES)


def flatten(tracer: Tracer, workload: str) -> List[dict]:
    """Spans as flat records: id, parent id, name, start, end, workload."""
    records: List[dict] = []

    def visit(span: Span, parent: object) -> None:
        identifier = len(records)
        records.append(
            {
                "id": identifier,
                "parent": parent,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "workload": workload,
            }
        )
        for child in span.children:
            visit(child, identifier)

    for root in tracer.roots:
        visit(root, None)
    return records


def write_trace(tracer: Tracer, workload: str, meta: dict) -> str:
    """Write one workload's spans; returns the file's path."""
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, f"trace_{workload}.json")
    document = {"version": 1, "workload": workload, "meta": meta,
                "spans": flatten(tracer, workload)}
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=1)
        stream.write("\n")
    return path


def _timed(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def _median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1000.0


# -- the collector ------------------------------------------------------------


class LayerRun:
    """One traced run: runs the pipelines, keeps metrics and failures."""

    def __init__(self, seed: int, sizes: dict, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.failures: List[str] = []
        self.checks = 0
        self.tracers: Dict[str, Tracer] = {}
        #: What each pipeline printed or wrote, to hold against the CLI's.
        self.outputs: Dict[str, str] = {}
        self.default_total_s = 0.0
        #: Wall time of each traced pipeline call, spans and gaps alike.
        self.pipeline_s: Dict[str, float] = {}
        self.serve_rep: Optional[workloads.Rep] = None
        self.window = workloads.attack_window(seed)

    def put(self, name: str, value: float, unit: str) -> None:
        """Record one per-layer metric."""
        self.metrics[name] = {"value": value, "unit": unit}

    def check(self, ok: bool, message: str) -> None:
        """Count one correctness check; remember it when it failed."""
        self.checks += 1
        if not ok:
            self.failures.append(message)

    # -- the pipelines, as closures the overhead audit can re-run -----------

    def pipeline(self, workload: str) -> Callable[[object], object]:
        """``tracer -> result`` for one workload's operator path."""
        sizes = self.sizes
        start_hour, duration = self.window
        if workload == "stability_default":
            return lambda tracer: pipelines.stability(
                tracer, sizes["stability_scale"], sizes["stability_rounds"]
            )
        if workload == "playbook_default":
            return lambda tracer: pipelines.playbook(
                tracer, sizes["playbook_scale"], sizes["playbook_depth"],
                start_hour, duration,
            )
        if workload == "playbook_pooled":
            return self._pooled
        if workload == "build_synth":
            return lambda tracer: pipelines.build_synth(
                tracer, self.seed, sizes["synth"]
            )
        return self._serve

    def _pooled(self, tracer, keep_pool: bool = False):
        """The pooled playbook on the store :meth:`pooled` filled, as the
        end-to-end repetitions find it; the pool dies with the call
        unless the probes want it warm."""
        store = TableStore(os.path.join(self.workdir, "tables-pooled"))
        pool = ShardPool(workers=self.sizes["pool_workers"], store=store)
        done = False
        try:
            with tracer.span("core.pool.start"):
                pool.map(_echo, list(range(pool.workers)))
            start_hour, duration = self.window
            run = pipelines.playbook(
                tracer, self.sizes["playbook_scale"], self.sizes["playbook_depth"],
                start_hour, duration, pool=pool,
            )
            done = keep_pool
        finally:
            if not done:
                pool.shutdown()
        return (run, pool) if keep_pool else run

    def _serve(self, tracer):
        run = pipelines.serve_setup(
            tracer, self.sizes["serve_scale"], self.sizes["serve_rounds"],
            self.sizes["serve_batch"],
        )
        replies = pipelines.ingest_traced(tracer, run)
        return run, replies

    def traced(self, workload: str, *args) -> object:
        """Run one workload's pipeline under a fresh tracer and keep it."""
        tracer = Tracer(clock=time.perf_counter)
        self.tracers[workload] = tracer
        started = time.perf_counter()
        result = self.pipeline(workload)(tracer, *args)
        self.pipeline_s[workload] = time.perf_counter() - started
        return result

    # -- layers -------------------------------------------------------------

    def cli(self) -> None:
        """Interpreter start and import cost: the floor of every CLI run."""
        walls = []
        for _ in range(3):
            wall_s, _, failures, _ = workloads.run_cli(["--help"], self.workdir)
            self.check(not failures, f"repro --help: {failures}")
            walls.append(wall_s)
        # The fastest of three, like every timing the coverage is made of.
        self.put("cli.startup_s", min(walls), "s")
        code = (
            "import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)"
        )
        _, _, status, out, err = workloads.Child(
            [sys.executable, "-c", code], self.workdir
        ).finish()
        self.check(status == 0, f"import repro.cli: {err.strip()[-200:]}")
        self.put("cli.import_s", float(out) if status == 0 else 0.0, "s")

    def stability(self) -> None:
        """Scalar engine on the operator path; vectorised engine as probes."""
        run = self.traced("stability_default")
        self.outputs["stability_default"] = run.stdout
        tracer = self.tracers["stability_default"]
        rounds = self.sizes["stability_rounds"]
        blocks = len(run.verfploeter.hitlist)
        round_times = self_times(tracer, "core.verfploeter.round")
        series_s = sum(round_times) + self_times(tracer, "core.verfploeter.series")[0]
        self.put("core.verfploeter.round_s", statistics.median(round_times), "s")
        self.put("core.verfploeter.series_s", series_s, "s")
        self.put("core.verfploeter.probes_per_s", blocks * rounds / series_s, "1/s")
        self.put("analysis.stability_s", self_times(tracer, "analysis.stability")[0], "s")
        self.put("analysis.flip_table_s", self_times(tracer, "analysis.flip_table")[0], "s")

        with tracer.span(PROBES):
            with tracer.span("core.fastscan.precompute"):
                engine = FastScanEngine(run.verfploeter, run.routing)
            fast = []
            with tracer.span("core.fastscan.series"):
                for round_id in range(rounds):
                    with tracer.span("core.fastscan.round"):
                        fast.append(
                            engine.run_scan(
                                round_id=round_id,
                                start_time=round_id * pipelines.INTERVAL_SECONDS,
                                dataset_id=f"stability-r{round_id:03d}",
                            )
                        )
            with tracer.span("core.sharding.inline_series"):
                sharded = run_sharded_series(
                    engine, rounds=rounds, shards=2, workers=0,
                    interval_seconds=pipelines.INTERVAL_SECONDS,
                    dataset_prefix="stability",
                    store=TableStore(os.path.join(self.workdir, "tables-inline")),
                )
            with tracer.span("obs.collecting"):
                collecting = FastScanEngine(
                    run.verfploeter, run.routing, observer=Observer.collecting()
                )
                null_s = min(
                    _timed(lambda: engine.run_series(rounds)) for _ in range(3)
                )
                collecting_s = min(
                    _timed(lambda: collecting.run_series(rounds)) for _ in range(3)
                )
        fast_rounds = self_times(tracer, "core.fastscan.round")
        fast_series_s = sum(fast_rounds) + self_times(tracer, "core.fastscan.series")[0]
        self.put("core.fastscan.precompute_s",
                 self_times(tracer, "core.fastscan.precompute")[0], "s")
        self.put("core.fastscan.round_ms", _median_ms(fast_rounds), "ms")
        self.put("core.fastscan.series_s", fast_series_s, "s")
        self.put("core.fastscan.block_rounds_per_s",
                 blocks * rounds / fast_series_s, "1/s")
        self.put("core.fastscan.engine_gap_ratio", series_s / fast_series_s, "ratio")
        self.put("obs.collecting_overhead_fraction",
                 collecting_s / null_s - 1.0, "ratio")
        identical = _engines_agree(run.scans, fast, sharded)
        self.put("core.fastscan.identical", int(identical), "count")
        self.check(identical, "scalar, vectorised and sharded rounds differ")

    def playbook(self) -> None:
        """Planner on the operator path; routing deltas and replans as probes."""
        run = self.traced("playbook_default")
        tracer = self.tracers["playbook_default"]
        stats = run.planner.cache.stats
        ranked = json.loads(run.artifact)["ranked"]
        self.check(len(ranked) == spec.PLAYBOOK_CONFIGS,
                   f"{len(ranked)} ranked configs")
        self.put("core.scenarios.build_s",
                 self_times(tracer, "core.scenarios.build")[0], "s")
        self.put("bgp.propagate_full_s", self_times(tracer, "bgp.propagate_full")[0], "s")
        self.put("bgp.delta_computes", stats.delta_computes, "count")
        self.put("bgp.cache_hits", stats.hits, "count")
        self.put("load.estimate_s", self_times(tracer, "load.estimate")[0], "s")
        self.put("load.weight_ms", self_times(tracer, "load.weight")[0] * 1000.0, "ms")
        self.put("traffic.compose_attack_s",
                 self_times(tracer, "traffic.compose_attack")[0], "s")
        self.put("core.playbook.plan_cold_s",
                 self_times(tracer, "core.playbook.plan_cold")[0], "s")
        self.put("core.playbook.artifact_ms",
                 self_times(tracer, "core.playbook.artifact")[0] * 1000.0, "ms")
        self.put("core.playbook.configs", len(ranked), "count")

        service = run.scenario.service
        internet = run.scenario.internet
        entries = enumerate_lattice(
            service, run.plan_args["attacked_site"],
            max_prepend=run.plan_args["max_prepend"], depth=run.plan_args["depth"],
        )
        with tracer.span(PROBES):
            with tracer.span("core.playbook.plan_warm"):
                run.planner.plan(run.estimate, **run.plan_args)
            cache = RoutingCache(maxsize=256)
            cache.get_or_compute(internet, service.default_policy())
            policies = [entry.policy_for(service) for entry in entries[1:]]
            for policy in policies:
                with tracer.span("bgp.propagate_delta"):
                    cache.get_or_compute(internet, policy)
            for policy in policies:
                with tracer.span("bgp.cache_hit"):
                    cache.get_or_compute(internet, policy)
        self.check(cache.stats.delta_computes == len(policies),
                   "a lattice policy was not a delta compute")
        self.put("core.playbook.plan_warm_ms",
                 self_times(tracer, "core.playbook.plan_warm")[0] * 1000.0, "ms")
        self.put("bgp.propagate_delta_ms",
                 _median_ms(self_times(tracer, "bgp.propagate_delta")), "ms")
        self.put("bgp.cache_hit_us",
                 _median_ms(self_times(tracer, "bgp.cache_hit")) * 1000.0, "us")
        self.outputs["playbook_default"] = run.artifact
        self.default_total_s = top_level_s(tracer)

    def pooled(self) -> None:
        """The pool on the operator path; its warm costs as probes."""
        self._pooled(NullTracer())  # fills the table store, untraced
        run, pool = self.traced("playbook_pooled", True)
        tracer = self.tracers["playbook_pooled"]
        try:
            self.outputs["playbook_pooled"] = run.artifact
            self.check(run.artifact == self.outputs["playbook_default"],
                       "pooled and default artifacts differ")
            self.put("core.pool.start_s", self_times(tracer, "core.pool.start")[0], "s")
            self.put("core.sharding.pooled_over_default_ratio",
                     top_level_s(tracer) / self.default_total_s, "ratio")
            observer = Observer.collecting()
            routing = run.planner.cache.get_or_compute(
                run.scenario.internet, run.scenario.service.default_policy()
            )
            cold_store = TableStore(os.path.join(self.workdir, "tables-cold"))
            with tracer.span(PROBES):
                for _ in range(4 * _WARM_REPS):
                    with tracer.span("core.pool.map"):
                        pool.map(_echo, list(range(pool.workers)))
                engine = FastScanEngine(run.verfploeter, routing)
                with tracer.span("core.tables.persist"):
                    fingerprint = engine.externalize(cold_store)
                for _ in range(_WARM_REPS):
                    with tracer.span("core.tables.attach"):
                        attach_round_state(cold_store, fingerprint)
                # First call of each attaches in the workers; the medians
                # below are over the warm calls that follow.
                run_sharded_series(engine, rounds=1, pool=pool, observer=observer)
                for _ in range(_WARM_REPS):
                    with tracer.span("core.sharding.scan"):
                        run_sharded_series(
                            engine, rounds=1, pool=pool, observer=observer
                        )
                sharded_weight_catchment(
                    run.baseline_catchment, run.estimate, pool=pool, observer=observer
                )
                for _ in range(_WARM_REPS):
                    with tracer.span("core.sharding.weight_join"):
                        sharded_weight_catchment(
                            run.baseline_catchment, run.estimate, pool=pool,
                            observer=observer,
                        )
        finally:
            pool.shutdown()
        self.put("core.pool.map_ms", _median_ms(self_times(tracer, "core.pool.map")), "ms")
        self.put("core.tables.persist_s", self_times(tracer, "core.tables.persist")[0], "s")
        self.put("core.tables.attach_ms",
                 _median_ms(self_times(tracer, "core.tables.attach")), "ms")
        self.put("core.sharding.scan_ms",
                 _median_ms(self_times(tracer, "core.sharding.scan")), "ms")
        self.put("core.sharding.weight_join_ms",
                 _median_ms(self_times(tracer, "core.sharding.weight_join")), "ms")
        counters = observer.metrics
        self.put("core.pool.payload_bytes",
                 counters.value_of("scan.shard.payload_bytes"), "bytes")
        self.put("core.pool.attach_hits", counters.value_of("pool.attach.hit"), "count")
        self.put("core.pool.attach_misses", counters.value_of("pool.attach.miss"), "count")
        self.put("core.pool.worker_max_rss_mb", pool.max_worker_rss_kb / 1024.0, "MB")

    def synth(self) -> None:
        """Topology and traffic synthesis; validation as a probe."""
        internet, day = self.traced("build_synth")
        tracer = self.tracers["build_synth"]
        with tracer.span(PROBES):
            with tracer.span("topology.validate"):
                valid = validate_internet(internet).ok
        blocks = len(internet.blocks)
        self.check(valid and blocks > self.sizes["synth_min_blocks"],
                   f"synthetic Internet invalid or small ({blocks} blocks)")
        build_s = self_times(tracer, "topology.build")[0]
        day_s = self_times(tracer, "traffic.day_load")[0]
        self.put("topology.build_s", build_s, "s")
        self.put("topology.blocks", blocks, "count")
        self.put("topology.build_us_per_block", build_s / blocks * 1e6, "us")
        self.put("topology.validate_s", self_times(tracer, "topology.validate")[0], "s")
        self.put("traffic.day_load_s", day_s, "s")
        self.put("traffic.day_load_us_per_block", day_s / blocks * 1e6, "us")

    def serve(self) -> None:
        """Ingest and in-process responses here; HTTP from one untraced child."""
        run, replies = self.traced("serve_queries")
        tracer = self.tracers["serve_queries"]
        ingest_s = sum(self_times(tracer, "service.ingest")) + sum(
            self_times(tracer, "service.round_end")
        )
        self.put("service.feed_s", self_times(tracer, "service.feed")[0], "s")
        self.put("service.ingest_s", ingest_s, "s")
        self.put("service.ingest_replies_per_s", replies / ingest_s, "1/s")
        self.put("service.round_end_ms",
                 _median_ms(self_times(tracer, "service.round_end")), "ms")

        daemon = workloads.ServeQueries(self.sizes, self.seed, self.workdir)
        catchment_paths = [
            path for path, status in daemon.plan
            if path.startswith("/v1/catchment/") and status == 200
        ]
        paths = {
            "catchment": catchment_paths[:_RESPOND_REPS],
            "load": ["/v1/load"] * (_RESPOND_REPS // 4),
            "diff": ["/v1/diff"] * (_RESPOND_REPS // 4),
            "metrics": ["/v1/metrics"] * (_RESPOND_REPS // 4),
            "health": ["/v1/health"] * (_RESPOND_REPS // 4),
        }
        respond_us: Dict[str, float] = {}
        app = run.service.app
        with tracer.span(PROBES):
            for kind, kind_paths in paths.items():
                samples = []
                with tracer.span(f"service.respond.{kind}"):
                    for path in kind_paths:
                        query = "rounds=1" if kind == "diff" else ""
                        started = time.perf_counter()
                        status, _ = app.respond("GET", path, query)
                        samples.append(time.perf_counter() - started)
                        if status != 200:
                            self.failures.append(f"respond {path}: {status}")
                self.checks += len(kind_paths)
                respond_us[kind] = statistics.median(samples) * 1e6
                self.put(f"service.respond_us.{kind}", respond_us[kind], "us")

        rep = daemon.rep()
        self.checks += rep.operations
        self.failures.extend(rep.failures)
        latencies = rep.extra["latencies"]
        p50_ms = workloads.percentile_ms(latencies, 50)
        mix_us = sum(share * respond_us.get(kind, 0.0) for kind, share in spec.QUERY_MIX)
        self.put("service.queries_per_s", rep.work / rep.work_s, "1/s")
        self.put("service.query_p50_ms", p50_ms, "ms")
        self.put("service.query_p99_ms", workloads.percentile_ms(latencies, 99), "ms")
        self.put("service.query_p999_ms", workloads.percentile_ms(latencies, 99.9), "ms")
        self.put("service.http_overhead_ms", p50_ms - mix_us / 1000.0, "ms")
        self.put("service.rss_growth_mb", rep.extra["rss_growth_mb"], "MB")
        self.serve_rep = rep

    # -- the audit of one workload's decomposition ---------------------------

    def audit(self, focus: str) -> Dict[str, Dict[str, object]]:
        """Coverage against the untraced child, and the tracer's own cost.

        Both sides of each ratio are the fastest of the runs made here
        (two children; the traced pipeline and one re-run of it; two
        untraced runs), for the reason :func:`workloads.best_of` gives.
        """
        pipeline = self.pipeline(focus)
        spans_s = [top_level_s(self.tracers[focus])]
        traced = [self.pipeline_s[focus]]
        untraced = [_timed(lambda: pipeline(NullTracer()))]
        retrace = Tracer(clock=time.perf_counter)
        traced.append(_timed(lambda: pipeline(retrace)))
        spans_s.append(top_level_s(retrace))
        untraced.append(_timed(lambda: pipeline(NullTracer())))
        if focus == "serve_queries":
            rep = self.serve_rep
            ingest_s = self.metrics["service.ingest_s"]["value"]
            coverage = (ingest_s + rep.work_s) / rep.wall_s
        else:
            workload = workloads.WORKLOADS[focus](self.sizes, self.seed, self.workdir)
            if focus == "playbook_pooled":
                workload.prepare()  # its repetitions expect a filled store
                self.checks += workload.reference_runs
                self.failures.extend(workload.reference_failures)
            reps = [workload.rep(), workload.rep()]
            for rep in reps:
                self.checks += rep.operations
                self.failures.extend(rep.failures)
            if focus in self.outputs:
                self.check(reps[0].output == self.outputs[focus],
                           f"{focus}: the child's output differs from the pipeline's")
            startup_s = self.metrics["cli.startup_s"]["value"]
            coverage = (startup_s + min(spans_s)) / min(rep.wall_s for rep in reps)
        return {
            "bench.trace_coverage": {"value": coverage, "unit": "ratio"},
            "bench.tracing_overhead_fraction": {
                "value": min(traced) / min(untraced) - 1.0, "unit": "ratio",
            },
        }


def _engines_agree(scalar, fast, sharded) -> bool:
    """Scalar vs vectorised (catchment, stats, RTTs to 1e-9) and
    vectorised vs sharded (bit for bit), on every round."""
    try:
        for slow, quick, shard in zip(scalar, fast, sharded):
            assert_scan_results_identical(shard, quick)
            if dict(slow.catchment.items()) != dict(quick.catchment.items()):
                return False
            if slow.stats != quick.stats or set(slow.rtts) != set(quick.rtts):
                return False
            for block, rtt in slow.rtts.items():
                if abs(quick.rtts[block] - rtt) > 1e-9 * max(abs(rtt), 1.0):
                    return False
    except EquivalenceError:
        return False
    return True


def run_traced(
    focuses: Sequence[str], seed: int, sizes: dict
) -> Tuple[dict, Dict[str, dict], int, List[str], List[str]]:
    """One traced run, audited on each of ``focuses``.

    Returns the per-layer metrics every focus shares, each focus's
    ``bench.*`` metrics, the checks attempted, the failures and the
    trace files written.
    """
    workdir = workloads.make_workdir("traced")
    try:
        run = LayerRun(seed, sizes, workdir)
        run.cli()
        run.stability()
        run.playbook()
        run.pooled()
        run.synth()
        run.serve()
        audits = {focus: run.audit(focus) for focus in focuses}
        meta = {"seed": seed, "clock": "perf_counter seconds"}
        paths = [
            write_trace(tracer, workload, meta)
            for workload, tracer in run.tracers.items()
        ]
        return run.metrics, audits, run.checks, run.failures, paths
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
