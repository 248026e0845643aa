"""End-to-end measurement: tracing off, every repetition a fresh child.

Operators pay interpreter start, imports and the scenario build on
every CLI run, so a repetition is one child process timed from
``Popen`` to exit; that also keeps ``default_routing_cache()`` and the
fingerprint memos from leaking between repetitions and gives each one
its own peak RSS from ``wait4``.  A run first makes its reference
runs (the other code path, whose output every repetition must equal),
then repeats its workload for as long as half of another repetition
fits in ``--seconds``, and reports, per metric, one value over the repetitions
(see :func:`best_of`).

Correctness checks run outside the timed regions and are counted:
``attempted`` is the number of operations (child runs and reference
runs; HTTP queries for ``serve_queries``) and ``failed`` those whose
exit code, output or answer was wrong.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import spec
from repro.core.scenarios import tangled_like
from repro.probing.hitlist import build_hitlist

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Everything a run writes lands here (inside the checkout, ignored by git).
WORK = os.path.join(HERE, ".work")

#: Seconds between samples of a child's process tree.
_SAMPLE_INTERVAL = 0.05
#: A child still running after this many seconds is stuck, and is killed.
_CHILD_TIMEOUT = 120.0


def best_of(better: str, samples: Sequence[float]) -> float:
    """The one value a run reports for a repeated measurement.

    A timing is reported as its *fastest* repetition and a rate as its
    highest, not as the median: the program and its inputs are
    deterministic, so everything above the minimum is the machine, and
    on the shared 2-core box this was built on the machine moves in
    regimes that outlast a run (medians over 10 s windows of one fixed
    loop ranged +/-12%, minima +/-2.5%; see README.md).  The median,
    the extremes and the count are still printed and stored.  Memory is
    not noisy in that way and is reported as the median.
    """
    if better == "median":
        return float(statistics.median(samples))
    return float(min(samples) if better == "lower" else max(samples))


# -- child processes ----------------------------------------------------------


def child_env(workdir: str) -> Dict[str, str]:
    """Environment of every child: the checkout's ``src``, local scratch.

    ``REPRO_TABLE_CACHE`` is the program's own switch for where
    ``TableStore`` memmaps live (default ``/tmp/repro-tables``); the
    benchmark may write only inside its checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_TABLE_CACHE"] = os.path.join(workdir, "tables")
    env["TMPDIR"] = workdir
    return env


def take_one_cpu() -> None:
    """Pin this process, and so every thread and child it starts, to
    the last CPU it may use.

    The benchmark never needs more than one core at a time: a CLI
    child runs while the harness waits for it, a pool's parent and its
    single worker take turns, and so do the closed-loop client and the
    daemon it queries.  On one CPU each of those hand-overs is a
    context switch; across two it is the wake-up of a halted virtual
    CPU, which on a shared host is the host scheduler's latency and
    not the program's (the daemon answered 1,350 queries a second with
    its client on the same CPU, 1,000 with both left to the scheduler,
    which also spread a quarter wider).  And the CPU left free takes
    whatever else the machine runs meanwhile, instead of the program.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:  # a sandbox that forbids it: measure unpinned
        pass


def _tree_pids(root: int) -> List[int]:
    """``root`` and its live descendants, from ``/proc``."""
    found = [root]
    for pid in found:
        try:
            with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as stream:
                found.extend(int(child) for child in stream.read().split())
        except OSError:
            continue
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Child:
    """One child process, timed from start to exit.

    Standard error goes to a file in the work directory and so does
    standard output, unless ``events`` asks for a pipe to read the
    child's JSON lines from as they come.  With ``sample_tree`` a
    thread polls ``/proc`` for the child's descendants and remembers
    each process's own peak RSS (``VmHWM``), so a forking child reports
    parent and workers *summed* — what the machine had to hold — where
    ``wait4`` alone reports only the largest of them.  A child still
    running after ``_CHILD_TIMEOUT`` seconds is killed.
    """

    def __init__(
        self,
        argv: Sequence[str],
        workdir: str,
        events: bool = False,
        sample_tree: bool = False,
    ) -> None:
        self._out_path = os.path.join(workdir, "child.out")
        self._err_path = os.path.join(workdir, "child.err")
        with open(self._out_path, "w", encoding="utf-8") as out, open(
            self._err_path, "w", encoding="utf-8"
        ) as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                list(argv),
                cwd=workdir,
                env=child_env(workdir),
                stdin=subprocess.PIPE if events else subprocess.DEVNULL,
                stdout=subprocess.PIPE if events else out,
                stderr=err,
                text=True,
            )
        self._watchdog = threading.Timer(_CHILD_TIMEOUT, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self._peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._sampler: Optional[threading.Thread] = None
        if sample_tree:
            self._sampler = threading.Thread(target=self._sample, daemon=True)
            self._sampler.start()

    def _sample(self) -> None:
        while not self._stop.is_set():
            for pid in _tree_pids(self.proc.pid):
                self._peaks[pid] = max(self._peaks.get(pid, 0), _peak_rss_kb(pid))
            self._stop.wait(_SAMPLE_INTERVAL)

    def read_event(self) -> dict:
        """The next JSON line the child prints; ``{}`` once it has none."""
        line = self.proc.stdout.readline()
        return json.loads(line) if line.strip() else {}

    def send(self, line: str) -> None:
        """One command line to the child's standard input."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self) -> Tuple[float, float, int, str, str]:
        """Wait for exit: ``(wall_s, peak_rss_mb, code, stdout, stderr)``."""
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall_s = time.perf_counter() - self.started
        # Reaped here, so Popen must not wait for the pid again.
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._watchdog.cancel()
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()
        if self.proc.stdout is not None:
            out = self.proc.stdout.read()
            self.proc.stdout.close()
        else:
            with open(self._out_path, encoding="utf-8") as stream:
                out = stream.read()
        with open(self._err_path, encoding="utf-8") as stream:
            err = stream.read()
        peak_kb = max(int(usage.ru_maxrss), sum(self._peaks.values()))
        return wall_s, peak_kb / 1024.0, self.proc.returncode, out, err


def cli_argv(*args: str) -> List[str]:
    """``python -m repro <args>``."""
    return [sys.executable, "-m", "repro", *args]


def pipelines_argv(*args: str) -> List[str]:
    """``python benchmarks/e2e/pipelines.py <args>``."""
    return [sys.executable, os.path.join(HERE, "pipelines.py"), *args]


# -- results ------------------------------------------------------------------


@dataclass
class Rep:
    """One repetition of a workload."""

    setup_s: float
    wall_s: float
    rss_mb: float
    work: float
    work_s: float
    output: str
    failures: List[str] = field(default_factory=list)
    operations: int = 1
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class RunResult:
    """Everything one run of one workload measured."""

    reps: List[Rep]
    attempted: int
    failures: List[str]
    notes: Dict[str, object]

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """The end-to-end metrics of ``BENCHMARK.json``, by name.

        ``value`` is what the run reports (see :func:`best_of`); the
        median, the extremes, the count and the samples themselves are
        what the report prints and ``compare.py`` takes spreads of.
        """
        rows = (
            ("setup_s", "s", "lower", [rep.setup_s for rep in self.reps]),
            ("wall_s", "s", "lower", [rep.wall_s for rep in self.reps]),
            ("peak_rss_mb", "MB", "median", [rep.rss_mb for rep in self.reps]),
            ("work_per_s", "1/s", "higher",
             [rep.work / rep.work_s for rep in self.reps]),
        )
        return {
            name: {
                "value": best_of(better, samples),
                "unit": unit,
                "median": float(statistics.median(samples)),
                "min": min(samples),
                "max": max(samples),
                "n": len(samples),
                "samples": samples,
            }
            for name, unit, better, samples in rows
        }


# -- the three CLI workloads --------------------------------------------------


def _hitlist_blocks(scale: str) -> int:
    """Blocks a scan of the tangled scenario probes (the unit of work)."""
    return len(build_hitlist(tangled_like(scale).internet))


def attack_window(seed: int) -> Tuple[int, int]:
    """Seed-drawn attack window: any start hour, 3 to 6 hours long.

    The window moves which hours the flood lands in, never how many
    configs or blocks the search evaluates, so every seed is the same
    amount of work on different inputs.
    """
    rng = random.Random(seed)
    return rng.randrange(24), rng.randrange(3, 7)


def run_cli(
    args: Sequence[str], workdir: str, sample_tree: bool = False
) -> Tuple[float, float, List[str], str]:
    """One CLI child: ``(wall_s, rss_mb, failures, stdout)``."""
    wall_s, rss_mb, code, out, err = Child(
        cli_argv(*args), workdir, sample_tree=sample_tree
    ).finish()
    failures = [] if code == 0 else [f"exit code {code}: {err.strip()[-300:]}"]
    return wall_s, rss_mb, failures, out


def warm_up(args: Sequence[str], workdir: str) -> float:
    """One set-up sample of a CLI workload: its subcommand, cut short.

    Interpreter start, imports, the scenario build and one round (or
    the five depth-1 configs) — what every invocation pays before its
    real work, and where a later change would move work to — and it
    leaves bytecode and page caches warm for the timed child that
    follows.  The scenario is kept at full size so that the sample is
    not interpreter start alone, which on the box this was built on
    drifts by a quarter between one half hour and the next.
    """
    wall_s, _, failures, _ = run_cli(args, workdir)
    if failures:
        raise RuntimeError(f"warm-up {list(args)} failed: {failures}")
    return wall_s


class Workload:
    """One workload: ``rep`` sets up, runs and times one operation."""

    name = ""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.notes: Dict[str, object] = {}
        #: ``(what ran, its output)`` of each reference run that succeeded;
        #: every repetition's output must equal each of them.
        self.references: List[Tuple[str, str]] = []
        self.reference_runs = 0
        self.reference_failures: List[str] = []

    def prepare(self) -> None:
        """Reference runs, once, before the repetitions (untimed)."""

    def rep(self) -> Rep:
        """One set-up sample and one timed repetition."""
        raise NotImplementedError

    def _reference(self, what: str, failures: List[str], output: str) -> None:
        self.reference_runs += 1
        if failures:
            self.reference_failures.extend(f"{what}: {failure}" for failure in failures)
        else:
            self.references.append((what, output))


class StabilityDefault(Workload):
    """``repro stability`` on the scalar engine, checked against the vectorised one."""

    name = "stability_default"

    def __init__(self, sizes: dict, seed: int, workdir: str) -> None:
        super().__init__(workdir)
        self.scale = sizes["stability_scale"]
        self.rounds = sizes["stability_rounds"]
        self.args = [
            "stability", "--scenario", spec.SCENARIO, "--scale", self.scale,
            "--rounds", str(self.rounds),
        ]
        self.work = float(_hitlist_blocks(self.scale) * self.rounds)

    def rep(self) -> Rep:
        setup_s = warm_up(
            ["stability", "--scenario", spec.SCENARIO, "--scale", self.scale,
             "--rounds", "1"],
            self.workdir,
        )
        wall_s, rss_mb, failures, out = run_cli(self.args, self.workdir)
        return Rep(setup_s, wall_s, rss_mb, self.work, wall_s, out, failures)

    def prepare(self) -> None:
        """Scalar stdout must equal the vectorised engine's, byte for byte."""
        _, _, failures, out = run_cli(
            [*self.args, "--shards", "2", "--workers", "0"], self.workdir
        )
        self._reference("--shards 2 --workers 0 (vectorised engine)", failures, out)


class PlaybookDefault(Workload):
    """``repro playbook`` single-process; cross-checked against the inline sharded path."""

    name = "playbook_default"
    #: ``--workers`` of the timed run (``None``: the flag is not given).
    workers: Optional[int] = None

    def __init__(self, sizes: dict, seed: int, workdir: str) -> None:
        super().__init__(workdir)
        self.scale = sizes["playbook_scale"]
        start_hour, duration = attack_window(seed)
        self.args = [
            "playbook", "--scenario", spec.SCENARIO, "--scale", self.scale,
            "--depth", str(sizes["playbook_depth"]),
            "--start-hour", str(start_hour), "--duration-hours", str(duration),
        ]
        self.work = float(_hitlist_blocks(self.scale) * spec.PLAYBOOK_CONFIGS)

    @staticmethod
    def _workers_args(workers: Optional[int]) -> List[str]:
        return [] if workers is None else ["--workers", str(workers)]

    def _run(self, workers: Optional[int]) -> Tuple[float, float, List[str], str]:
        """One playbook child; returns its artifact.

        The table store lives in the run's work directory and is never
        emptied, so only the first ``--workers`` child of a run finds
        it cold.
        """
        out_path = os.path.join(self.workdir, "playbook.json")
        wall_s, rss_mb, failures, _ = run_cli(
            [*self.args, *self._workers_args(workers), "--out", out_path],
            self.workdir,
            sample_tree=bool(workers),
        )
        artifact = ""
        if not failures:
            with open(out_path, encoding="utf-8") as stream:
                artifact = stream.read()
            os.remove(out_path)
        return wall_s, rss_mb, failures, artifact

    def prepare(self) -> None:
        """The inline sharded path's artifact must be byte-identical."""
        _, _, failures, artifact = self._run(0)
        self._reference("--workers 0 (inline sharded path)", failures, artifact)

    def rep(self) -> Rep:
        setup_s = warm_up(
            ["playbook", "--scenario", spec.SCENARIO, "--scale", self.scale,
             "--depth", "1", *self._workers_args(self.workers)],
            self.workdir,
        )
        wall_s, rss_mb, failures, artifact = self._run(self.workers)
        if not failures:
            ranked = json.loads(artifact)["ranked"]
            if len(ranked) != spec.PLAYBOOK_CONFIGS:
                failures.append(f"{len(ranked)} ranked configs, not 101")
        return Rep(setup_s, wall_s, rss_mb, self.work, wall_s, artifact, failures)


class PlaybookPooled(PlaybookDefault):
    """The same playbook through ``ShardPool --workers 1``, table store warm.

    One worker, because the benchmark runs on one CPU (see
    :func:`take_one_cpu`), where a second adds nothing; the driver's
    first check, with ``--workers 2`` on two shared CPUs and an empty
    store, spread 26-29% between runs of the same code.  What is gated
    is the pool's overhead over ``playbook_default`` (start, payloads,
    attaches, the sharded scan and join of each config), not a
    parallel speed-up two shared cores cannot show steadily.

    Warm, because every config of the search persists its round state
    to the content-addressed table store the first time it is seen (91
    MB in 1,586 files at ``small``) and only then: an operator
    replanning under attack finds the store filled, and filling it is
    the filesystem's time as much as the program's (single cold runs
    spread 16% between quartiles where warm ones spread 8%).  So the
    first, cold run of the command is a reference run, its wall time
    kept as the note ``cold_store_wall_s``, and the timed repetitions,
    set-up samples included, find the store it filled.  The traced
    run's ``core.tables.persist_s`` is the cold cost of one state.
    """

    name = "playbook_pooled"

    def __init__(self, sizes: dict, seed: int, workdir: str) -> None:
        super().__init__(sizes, seed, workdir)
        self.workers = sizes["pool_workers"]

    def prepare(self) -> None:
        """Fill the store; cold, warm and single-process artifacts must agree."""
        wall_s, _, failures, artifact = self._run(self.workers)
        self.notes["cold_store_wall_s"] = wall_s
        self._reference(
            f"--workers {self.workers} on an empty table store", failures, artifact
        )
        _, _, failures, artifact = self._run(None)
        self._reference("no --workers (single process)", failures, artifact)


# -- build_synth --------------------------------------------------------------


class BuildSynth(Workload):
    """Topology and traffic synthesis from the seed, no scan engine."""

    name = "build_synth"

    def __init__(self, sizes: dict, seed: int, workdir: str) -> None:
        super().__init__(workdir)
        self.seed = seed
        self.size = sizes["size"]
        self.min_blocks = sizes["synth_min_blocks"]

    def _run(self, size: str) -> Tuple[float, float, List[str], dict]:
        child = Child(
            pipelines_argv("build_synth", "--seed", str(self.seed), "--size", size),
            self.workdir,
            events=True,
        )
        built = child.read_event()
        built_s = time.perf_counter() - child.started
        checked = child.read_event()
        _, rss_mb, code, _, err = child.finish()
        failures = []
        if code != 0 or built.get("event") != "built" or not checked:
            failures.append(f"exit code {code}: {err.strip()[-300:]}")
        return built_s, rss_mb, failures, checked

    def rep(self) -> Rep:
        """Timed from child start to its ``built`` line; checks come after."""
        setup_s, _, failures, _ = self._run("setup")
        if failures:
            raise RuntimeError(f"build_synth warm-up failed: {failures}")
        built_s, rss_mb, failures, checked = self._run(self.size)
        if not failures:
            if not checked["valid"]:
                failures.append("validate_internet(...).ok is false")
            if checked["blocks"] <= self.min_blocks:
                failures.append(
                    f"{checked['blocks']} blocks, need > {self.min_blocks}"
                )
        return Rep(
            setup_s, built_s, rss_mb, float(checked.get("blocks", 1)), built_s,
            str(checked.get("digest")), failures,
        )


# -- serve_queries ------------------------------------------------------------


def query_plan(seed: int, scale: str, count: int) -> List[Tuple[str, int]]:
    """``count`` ``(path, expected status)`` pairs drawn from ``seed``.

    Catchment blocks are drawn in proportion to their day-load query
    volume — the heavy-tailed popularity the ``traffic`` layer gives
    the scenario — so hot blocks repeat and the tail is long.
    """
    day = tangled_like(scale).day_load("serve-day")
    blocks = [int(block) for block in day.blocks]
    cumulative = np.cumsum(day.daily_queries()).tolist()
    rng = random.Random(seed)
    kinds = [kind for kind, _ in spec.QUERY_MIX]
    shares = [share for _, share in spec.QUERY_MIX]
    plan: List[Tuple[str, int]] = []
    for kind in rng.choices(kinds, weights=shares, k=count):
        if kind == "catchment":
            block = rng.choices(blocks, cum_weights=cumulative)[0]
            plan.append((f"/v1/catchment/{block}", 200))
        elif kind == "diff":
            plan.append(("/v1/diff?rounds=1", 200))
        elif kind == "malformed":
            plan.append(rng.choice(spec.MALFORMED))
        else:
            plan.append((f"/v1/{kind}", 200))
    return plan


def closed_loop(
    host: str, port: int, plan: Sequence[Tuple[str, int]]
) -> Tuple[List[float], List[int], List[bytes]]:
    """One client, one connection at a time: latencies, statuses, bodies.

    A closed loop — the next GET is sent only when the previous answer
    has been read — over the host's loopback interface, not a link.
    """
    latencies: List[float] = []
    statuses: List[int] = []
    bodies: List[bytes] = []
    for path, _ in plan:
        started = time.perf_counter()
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            body, status = b"", -1
        finally:
            connection.close()
        latencies.append(time.perf_counter() - started)
        statuses.append(status)
        bodies.append(body)
    return latencies, statuses, bodies


def check_answers(
    plan: Sequence[Tuple[str, int]],
    statuses: Sequence[int],
    bodies: Sequence[bytes],
    expected_sites: Dict[str, Optional[str]],
) -> List[str]:
    """Failures among the answers: one string per wrong query."""
    failures: List[str] = []
    for (path, expected), status, body in zip(plan, statuses, bodies):
        if status != expected:
            failures.append(f"{path}: status {status}, expected {expected}")
        elif path == "/v1/load":
            shares = json.loads(body)["window"]["fractions"]
            if "UNK" not in shares or abs(sum(shares.values()) - 1.0) > 1e-9:
                failures.append(f"/v1/load fractions sum to {sum(shares.values())!r}")
        elif path.startswith("/v1/catchment/") and status == 200:
            block = path.rsplit("/", 1)[1]
            if block in expected_sites:
                if json.loads(body)["site"] != expected_sites[block]:
                    failures.append(f"{path}: site differs from the published view")
    return failures


def sample_blocks(plan: Sequence[Tuple[str, int]]) -> List[str]:
    """The first distinct catchment blocks of a plan, to be double-checked."""
    seen: Dict[str, None] = {}
    for path, status in plan:
        if path.startswith("/v1/catchment/") and status == 200:
            seen.setdefault(path.rsplit("/", 1)[1])
            if len(seen) == spec.CATCHMENT_SAMPLE:
                break
    return list(seen)


def percentile_ms(latencies: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``latencies`` (seconds), in milliseconds."""
    return float(np.percentile(np.asarray(latencies), q)) * 1000.0


class ServeQueries(Workload):
    """A daemon child that ingests a materialised feed, queried over loopback.

    Its set-up (scenario, day load, state, feed) happens inside every
    repetition's child, which times it.
    """

    name = "serve_queries"

    def __init__(self, sizes: dict, seed: int, workdir: str) -> None:
        super().__init__(workdir)
        self.size = sizes["size"]
        self.plan = query_plan(seed, sizes["serve_scale"], sizes["serve_queries"])
        self.sample = sample_blocks(self.plan)

    def rep(self) -> Rep:
        child = Child(
            pipelines_argv("serve", "--size", self.size), self.workdir, events=True
        )
        ready = child.read_event()
        if ready.get("event") != "ready":
            _, _, code, _, err = child.finish()
            raise RuntimeError(
                f"serve daemon did not come up (exit {code}): {err.strip()[-300:]}"
            )
        started = time.perf_counter()
        latencies, statuses, bodies = closed_loop(
            ready["host"], ready["port"], self.plan
        )
        query_s = time.perf_counter() - started
        child.send("expect " + " ".join(self.sample))
        expected = child.read_event().get("sites", {})
        child.send("quit")
        stopped = child.read_event()
        _, rss_mb, code, _, err = child.finish()
        failures = check_answers(self.plan, statuses, bodies, expected)
        if code != 0:
            failures.append(f"daemon exit code {code}: {err.strip()[-300:]}")
        return Rep(
            setup_s=ready["setup_s"],
            wall_s=ready["ingest_s"] + query_s,
            rss_mb=rss_mb,
            work=float(len(self.plan)),
            work_s=query_s,
            output="",
            failures=failures,
            operations=len(self.plan),
            extra={
                "latencies": latencies,
                "rss_growth_mb": stopped.get("rss_mb", 0.0) - ready["rss_mb"],
            },
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        StabilityDefault, PlaybookDefault, PlaybookPooled, BuildSynth, ServeQueries,
    )
}


# -- one run ------------------------------------------------------------------


def make_workdir(label: str) -> str:
    """A fresh scratch directory under ``.work`` for one run."""
    path = os.path.join(WORK, f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_workload(
    name: str,
    seed: int,
    sizes: dict,
    seconds: Optional[float] = None,
    reps: Optional[int] = None,
) -> RunResult:
    """Reference runs, repetitions, checks; everything one run measures.

    Every repetition takes one set-up sample and one timed operation,
    so both are spread over the whole run.  Repeats exactly ``reps``
    times when given; otherwise for as long as at least half of
    another repetition the length of the last one still fits in
    ``seconds``, counted from before the reference runs (at least
    once), so that a run lasts ``seconds`` give or take half a
    repetition, whatever its checks cost.
    """
    workdir = make_workdir(name)
    try:
        started = time.perf_counter()
        workload = WORKLOADS[name](sizes, seed, workdir)
        workload.prepare()
        done: List[Rep] = []
        while True:
            rep_started = time.perf_counter()
            done.append(workload.rep())
            now = time.perf_counter()
            if reps is not None:
                if len(done) >= reps:
                    break
            elif (now - started) + 0.5 * (now - rep_started) > (seconds or 0.0):
                break
        attempted = sum(rep.operations for rep in done) + workload.reference_runs
        failures = [failure for rep in done for failure in rep.failures]
        failures.extend(workload.reference_failures)
        if len({rep.output for rep in done}) != 1:
            failures.append("outputs differ between repetitions")
        for what, output in workload.references:
            if output != done[0].output:
                failures.append(f"output differs from that of {what}")
        notes: Dict[str, object] = {
            "work_unit": spec.WORK_UNITS[name],
            "work_per_rep": done[0].work,
            **workload.notes,
        }
        if name == "serve_queries":
            notes["traffic"] = "host loopback, closed loop, 1 client, 1 connection"
        return RunResult(done, attempted, failures, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
