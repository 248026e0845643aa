#!/usr/bin/env python3
"""The operator-level benchmark: one command, every metric by name.

    python benchmarks/e2e/run.py                       # all five workloads
    python benchmarks/e2e/run.py --workload build_synth --reps 3
    python benchmarks/e2e/run.py --traced              # per-layer metrics
    python benchmarks/e2e/run.py --smoke               # under a minute
    python benchmarks/e2e/run.py --out A.json          # for compare.py

The driver's form is ``--workload NAME --seed N --seconds S --trace 0|1``;
the last line of standard output is then one JSON object with exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer ones with ``--trace 1``.  The exit code is non-zero when a
correctness check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)

import numpy  # noqa: E402

import layers  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from repro.obs import run_metadata  # noqa: E402


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def metadata(args: argparse.Namespace, sizes: dict) -> Dict[str, object]:
    """Who measured what, where: embedded in every output document."""
    affinity = sorted(os.sched_getaffinity(0))
    return run_metadata(
        scenario=spec.SCENARIO,
        scale=sizes["stability_scale"],
        seed=args.seed,
        reps=args.reps,
        seconds=args.seconds,
        smoke=args.smoke,
        traced=args.traced,
        nproc=os.cpu_count(),
        affinity=affinity,
        load_threads="1 client thread, --workers %d" % sizes["pool_workers"],
        python=platform.python_version(),
        numpy=numpy.__version__,
        git_commit=_git_commit(),
    )


def _print_metric(name: str, entry: Dict[str, object]) -> None:
    line = f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}"
    if "n" in entry:
        line += (
            f"   (median {entry['median']:.6g}, min {entry['min']:.6g}, "
            f"max {entry['max']:.6g}, n={entry['n']})"
        )
    print(line)


def measure(name: str, args: argparse.Namespace, sizes: dict) -> Dict[str, object]:
    """One workload, tracing off: its end-to-end result document."""
    result = workloads.run_workload(
        name, args.seed, sizes, seconds=args.seconds, reps=args.reps
    )
    metrics = result.metrics()
    document: Dict[str, object] = {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
        "failures": result.failures[:20],
        "notes": result.notes,
    }
    if name == "serve_queries":
        pooled = [s for rep in result.reps for s in rep.extra["latencies"]]
        document["notes"]["query_p50_ms"] = workloads.percentile_ms(pooled, 50)
        document["notes"]["query_p99_ms"] = workloads.percentile_ms(pooled, 99)
        document["notes"]["latency_samples"] = len(pooled)
    return document


def measure_traced(
    names: Sequence[str], args: argparse.Namespace, sizes: dict
) -> Dict[str, Dict[str, object]]:
    """One traced run: a per-layer document for each audited workload.

    The layers are measured once; each workload's document carries them
    plus its own ``bench.*`` audit.
    """
    shared, audits, attempted, failures, paths = layers.run_traced(
        names, args.seed, sizes
    )
    return {
        name: {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {**shared, **audits[name]},
            "failures": failures[:20],
            "notes": {"traces": [os.path.relpath(path, ROOT) for path in paths]},
        }
        for name in names
    }


def contract_line(document: Dict[str, object]) -> str:
    """The driver's result object: exactly four keys, value and unit only."""
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in document["metrics"].items()
            },
        }
    )


def build_parser() -> argparse.ArgumentParser:
    """The harness's argument parser."""
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(spec.WORKLOADS),
        help="run only this workload (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--reps", type=int, default=None,
        help="exactly this many repetitions (default: repeat for --seconds)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="repeat each workload until this much time has been measured "
             "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run (per-layer metrics); 0: end to end",
    )
    parser.add_argument(
        "--traced", action="store_true", help="same as --trace 1",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, one repetition, 500 queries: under a minute",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the full result document (for compare.py)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the benchmark; returns the process exit code."""
    args = build_parser().parse_args(argv)
    workloads.take_one_cpu()
    args.traced = args.traced or args.trace == 1
    sizes = spec.SMOKE if args.smoke else spec.FULL
    if args.reps is None and args.seconds is None:
        if args.smoke:
            args.reps = 1
        else:
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
                args.seconds = float(json.load(stream)["run_seconds"])
    names: List[str] = args.workload or list(spec.WORKLOADS)
    output: Dict[str, object] = {"meta": metadata(args, sizes), "workloads": {}}
    print(f"# seed {args.seed}; {'traced' if args.traced else 'end to end'}; "
          f"{'smoke' if args.smoke else 'full'} sizes; "
          f"fingerprint {output['meta']['fingerprint']}")
    traced = measure_traced(names, args, sizes) if args.traced else {}
    shown: set = set()
    for name in names:
        document = traced[name] if args.traced else measure(name, args, sizes)
        output["workloads"][name] = document
        print(f"== {name}: {spec.WORKLOADS[name]}")
        for note, value in sorted(document["notes"].items()):
            print(f"  # {note}: {value}")
        for metric, entry in document["metrics"].items():
            # A traced run measures the layers once; only the audit
            # (bench.*) differs between the workloads it was asked for.
            if metric not in shown or metric.startswith("bench."):
                _print_metric(metric, entry)
            if args.traced:
                shown.add(metric)
        for failure in document["failures"]:
            print(f"  FAILED: {failure}")
        print(contract_line(document))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(output, stream, indent=1, sort_keys=True)
            stream.write("\n")
    correct = all(entry["correct"] for entry in output["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
