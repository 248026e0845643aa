"""Smoke test of the operator-level benchmark (under a minute).

Not part of the tier-1 suite (``testpaths = tests``) and skipped by
``make bench`` (no ``benchmark`` fixture); run it directly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It runs ``run.py --smoke`` end to end and traced, as the driver would,
and checks the output against ``BENCHMARK.json``: every workload and
every metric is emitted by name with its unit, names are well formed,
and the traced run leaves a well-formed span file per workload.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def _run(*args: str) -> dict:
    """``run.py <args>``; the parsed last line of its standard output."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check(result: dict, declared: list) -> None:
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(entry["name"] for entry in declared)
    for entry in declared:
        emitted = result["metrics"][entry["name"]]
        assert emitted["unit"] == entry["unit"], entry["name"]
        assert isinstance(emitted["value"], (int, float)), entry["name"]


def test_names_are_well_formed(benchmark_spec):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(
        UNIT.match(entry["unit"])
        for key in ("end_to_end", "per_layer")
        for entry in benchmark_spec[key]
    )
    assert benchmark_spec["paths"] == ["benchmarks/e2e"]


def test_every_workload_emits_every_end_to_end_metric(benchmark_spec, tmp_path):
    out = tmp_path / "smoke.json"
    _run("--smoke", "--out", str(out))
    document = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(document["workloads"]) == sorted(
        entry["name"] for entry in benchmark_spec["workloads"]
    )
    assert document["meta"]["fingerprint"] and document["meta"]["numpy"]
    for result in document["workloads"].values():
        contract = {
            key: result[key] for key in ("correct", "attempted", "failed")
        }
        contract["metrics"] = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        }
        _check(contract, benchmark_spec["end_to_end"])


def test_traced_run_emits_every_layer_and_writes_spans(benchmark_spec):
    result = _run(
        "--smoke", "--workload", "stability_default", "--seed", "5",
        "--seconds", "1", "--trace", "1",
    )
    _check(result, benchmark_spec["per_layer"])
    assert result["metrics"]["core.fastscan.identical"]["value"] == 1
    for entry in benchmark_spec["workloads"]:
        path = os.path.join(HERE, "traces", f"trace_{entry['name']}.json")
        with open(path, encoding="utf-8") as stream:
            trace = json.load(stream)
        assert trace["workload"] == entry["name"] and trace["spans"]
        identifiers = {span["id"] for span in trace["spans"]}
        for span in trace["spans"]:
            assert NAME.match(span["name"])
            assert span["end"] >= span["start"]
            assert span["parent"] is None or span["parent"] in identifiers
            assert span["workload"] == entry["name"]
