#!/usr/bin/env python3
"""Compare two result documents of ``run.py --out`` under the benchmark's bounds.

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): the value each document
reports, the median and spread of its repetitions (distance between
the first and third quartile as a share of the median), how much worse
B's value is than A's as a share of A's, and a verdict under the bound
``BENCHMARK.json`` stores for the metric:

- ``worse``      B is worse than A by more than the bound;
- ``unresolved`` it is not, but a spread is wider than the bound, so
                 "no change" cannot be told from a change of that size
                 (unless every repetition of B beats every one of A);
- ``ok``         otherwise.

Exits non-zero on any ``worse`` row, or when a workload's failed
fraction (failed / attempted operations) is higher in B than in A.
Two sets of runs of the same commit must come out without ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        benchmark = json.load(stream)
    return {
        entry["name"]: (entry["better"], float(entry["bound"]))
        for entry in benchmark["end_to_end"]
    }


def spread(samples: Sequence[float]) -> Optional[float]:
    """Interquartile distance over the median; ``None`` under two samples."""
    if len(samples) < 2:
        return None
    first, median, third = statistics.quantiles(samples, n=4)
    return (third - first) / median if median else None


def worsening(better: str, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if better == "lower" else -change


def all_better(better: str, before: Sequence[float], after: Sequence[float]) -> bool:
    """True when every sample of ``after`` beats every sample of ``before``."""
    if better == "lower":
        return max(after) < min(before)
    return min(after) > max(before)


def verdict(better: str, bound: float, before: dict, after: dict) -> Tuple[str, float]:
    """``(verdict, worsening)`` of one metric on one workload."""
    worse_by = worsening(better, before["value"], after["value"])
    if worse_by > bound:
        return "worse", worse_by
    spreads = [spread(before["samples"]), spread(after["samples"])]
    wide = any(value is not None and value > bound for value in spreads)
    if wide and not all_better(better, before["samples"], after["samples"]):
        return "unresolved", worse_by
    return "ok", worse_by


def failed_fraction(document: dict) -> float:
    """Failed operations over attempted ones, for one workload."""
    return document["failed"] / max(document["attempted"], 1)


def compare(first: dict, second: dict, bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[str], int]:
    """The report's lines and the exit code."""
    lines = [
        f"{'workload':<18} {'metric':<12} {'A':>11} {'A med':>11} {'A iqr':>6} "
        f"{'B':>11} {'B med':>11} {'B iqr':>6} {'worse by':>9} {'bound':>6}  verdict"
    ]
    code = 0
    for workload in sorted(set(first["workloads"]) & set(second["workloads"])):
        before_doc = first["workloads"][workload]
        after_doc = second["workloads"][workload]
        for metric, (better, bound) in bounds.items():
            before = before_doc["metrics"].get(metric)
            after = after_doc["metrics"].get(metric)
            if before is None or after is None:
                continue
            outcome, worse_by = verdict(better, bound, before, after)
            if outcome == "worse":
                code = 1

            def cell(value: Optional[float]) -> str:
                return "   n/a" if value is None else f"{value:6.1%}"

            lines.append(
                f"{workload:<18} {metric:<12} {before['value']:>11.5g} "
                f"{before['median']:>11.5g} {cell(spread(before['samples']))} "
                f"{after['value']:>11.5g} {after['median']:>11.5g} "
                f"{cell(spread(after['samples']))} {worse_by:>+9.1%} "
                f"{bound:>6.0%}  {outcome}"
            )
        fractions = failed_fraction(before_doc), failed_fraction(after_doc)
        if fractions[1] > fractions[0]:
            code = 1
        lines.append(
            f"{workload:<18} {'failed_fraction':<12} {fractions[0]:>11.5g} "
            f"{'':>18} {fractions[1]:>11.5g} {'':>28}  "
            f"{'worse' if fractions[1] > fractions[0] else 'ok'}"
        )
    return lines, code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Print the comparison; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", metavar="A.json")
    parser.add_argument("second", metavar="B.json")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as stream:
            documents.append(json.load(stream))
    lines, code = compare(documents[0], documents[1], load_bounds())
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
