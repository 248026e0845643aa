"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

TINY = ["--scenario", "broot", "--scale", "tiny"]
TANGLED_TINY = ["--scenario", "tangled", "--scale", "tiny"]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "--scenario", "xroot"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "--scale", "galactic"])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "scan", "sweep", "stability", "coverage",
            "loadmap", "failure", "suggest", "playbook",
        ):
            args = parser.parse_args([command] + TINY + (
                ["--rounds", "2"] if command == "stability" else []
            ))
            assert args.command == command


class TestCommands:
    def test_scan(self, capsys):
        assert main(["scan", *TINY]) == 0
        output = capsys.readouterr().out
        assert "catchment" in output
        assert "LAX" in output and "MIA" in output

    def test_scan_with_map_and_rtt(self, capsys):
        assert main(["scan", *TINY, "--map", "--rtt"]) == 0
        output = capsys.readouterr().out
        assert "legend:" in output
        assert "median RTT" in output

    def test_coverage(self, capsys):
        assert main(["coverage", *TINY]) == 0
        assert "coverage ratio" in capsys.readouterr().out

    def test_stability(self, capsys):
        assert main(["stability", *TINY, "--rounds", "4"]) == 0
        output = capsys.readouterr().out
        assert "Figure 9" in output
        assert "Table 7" in output

    def test_failure(self, capsys):
        assert main(["failure", *TINY, "--site", "MIA"]) == 0
        output = capsys.readouterr().out
        assert "MIA" in output
        assert "load multiple" in output

    def test_suggest(self, capsys):
        assert main(["suggest", *TINY, "--count", "2"]) == 0
        output = capsys.readouterr().out
        assert "suggested" in output or "no underserved" in output

    def test_loadmap(self, capsys):
        assert main(["loadmap", *TINY]) == 0
        assert "load share" in capsys.readouterr().out

    def test_sweep_tangled_site(self, capsys):
        assert main(
            ["sweep", "--scenario", "tangled", "--scale", "tiny",
             "--site", "MIA"]
        ) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_seed_override_changes_topology(self, capsys):
        main(["scan", *TINY, "--seed", "1"])
        first = capsys.readouterr().out
        main(["scan", *TINY, "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestTypedErrors:
    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--rounds", "0"], "rounds must be >= 1"),
            (["--rounds", "2", "--shards", "0"], "shards must be >= 1"),
        ],
        ids=["zero-rounds", "zero-shards"],
    )
    def test_repro_errors_exit_2_with_one_stderr_line(self, extra, message, capsys):
        """A ``ReproError`` reaches the operator as a message, not a traceback."""
        assert main(["stability", *TANGLED_TINY, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {message}\n"


class TestObservability:
    """--metrics-out / --trace-out round-trips and artifact determinism."""

    def test_metrics_file_matches_in_memory_registry(self, tmp_path, capsys):
        from repro.obs import Observer

        observer = Observer.collecting()
        out = tmp_path / "metrics.json"
        assert main(
            ["scan", *TINY, "--metrics-out", str(out)], observer=observer
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["counters"] == json.loads(
            observer.metrics.to_json()
        )["counters"]
        assert payload["meta"]["scenario"] == "broot"
        assert payload["meta"]["scale"] == "tiny"
        assert "fingerprint" in payload["meta"]

    def test_trace_file_matches_in_memory_tracer(self, tmp_path, capsys):
        from repro.obs import Observer

        observer = Observer.collecting()
        out = tmp_path / "trace.json"
        assert main(
            ["scan", *TINY, "--trace-out", str(out)], observer=observer
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["spans"] == json.loads(
            observer.tracer.to_json()
        )["spans"]
        names = [span["name"] for span in payload["spans"]]
        assert "fastscan.precompute" in names
        assert "fastscan.round" in names
        assert "scan.round" not in names

    def test_metrics_and_trace_share_a_fingerprint(self, tmp_path, capsys):
        metrics_out = tmp_path / "m.json"
        trace_out = tmp_path / "t.json"
        assert main(
            ["scan", *TINY, "--metrics-out", str(metrics_out),
             "--trace-out", str(trace_out)]
        ) == 0
        metrics_meta = json.loads(metrics_out.read_text())["meta"]
        trace_meta = json.loads(trace_out.read_text())["meta"]
        assert metrics_meta == trace_meta

    def test_scan_prints_metrics_table_when_collecting(self, tmp_path, capsys):
        assert main(
            ["scan", *TINY, "--metrics-out", str(tmp_path / "m.json")]
        ) == 0
        output = capsys.readouterr().out
        assert "pipeline metrics:" in output
        assert "probe.probes_sent" in output

    def test_two_seeded_runs_write_identical_artifacts(self, tmp_path, capsys):
        def run(tag):
            metrics_out = tmp_path / f"m-{tag}.json"
            trace_out = tmp_path / f"t-{tag}.json"
            assert main(
                ["sweep", *TINY, "--metrics-out", str(metrics_out),
                 "--trace-out", str(trace_out)]
            ) == 0
            return metrics_out.read_bytes(), trace_out.read_bytes()

        assert run("first") == run("second")

    def test_profile_flag_prints_report(self, capsys):
        assert main(["scan", *TINY, "--profile"]) == 0
        assert "profile (wall clock, opt-in):" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,engine_calls",
        [
            (["scan", *TINY], (1, 1, 1, 0)),
            (["stability", *TINY, "--rounds", "3"], (1, 1, 3, 0)),
            # The baseline as a lattice of one, then the other 100 configs.
            (["playbook", *TANGLED_TINY, "--depth", "2"], (1, 2, 0, 2)),
            (["report", *TINY], None),
        ],
        ids=["scan", "stability", "playbook", "report"],
    )
    def test_profile_lists_the_engine_sections(self, argv, engine_calls, capsys):
        """One row per span name of the run's own trace, calls = count."""
        from collections import Counter

        from repro.obs import Observer

        observer = Observer.collecting()
        assert main([*argv, "--profile"], observer=observer) == 0
        report = capsys.readouterr().out.split("profile (wall clock, opt-in):\n")[1]
        header, *rows = report.strip().splitlines()
        assert header.split() == ["span", "calls", "total", "s", "self", "s"]
        calls = {row.split()[0]: int(row.split()[1]) for row in rows}
        assert calls == Counter(observer.tracer.span_names())
        engine = (
            "fastscan.invariant", "fastscan.precompute", "fastscan.round",
            "fastscan.lattice",
        )
        if engine_calls is None:
            assert {"hitlist.build", "bgp.propagate.full"} <= set(calls)
            assert not set(engine) & set(calls)
        else:
            assert tuple(calls.get(name, 0) for name in engine) == engine_calls
        for row in rows:
            total, own = (float(value) for value in row.split()[2:])
            assert 0.0 <= own <= total + 1e-4

    @pytest.mark.parametrize(
        "argv",
        [["scan", *TINY], ["stability", *TINY, "--rounds", "3"]],
        ids=["scan", "stability"],
    )
    def test_profile_leaves_the_artifacts_unchanged(self, argv, tmp_path, capsys):
        def run(tag, extra):
            metrics_out = tmp_path / f"m-{tag}.json"
            trace_out = tmp_path / f"t-{tag}.json"
            assert main(
                [*argv, "--metrics-out", str(metrics_out),
                 "--trace-out", str(trace_out), *extra]
            ) == 0
            return metrics_out.read_bytes(), trace_out.read_bytes()

        assert run("plain", []) == run("profiled", ["--profile"])
        assert "profile (wall clock, opt-in):" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,scans,draw_hits",
        [
            (["playbook", *TANGLED_TINY, "--depth", "2"], 101, 100),
            (["playbook", *TANGLED_TINY, "--depth", "1"], 5, 4),
            (["stability", *TANGLED_TINY, "--rounds", "4"], 4, 0),
        ],
        ids=["playbook-depth2", "playbook-depth1", "stability"],
    )
    def test_counters_show_the_hoist(self, argv, scans, draw_hits, capsys):
        """One invariant build per deployment; one draw per run of equal
        round ids — a playbook scans every policy at round 0, a
        stability series never repeats a round.  A playbook scans its
        baseline as a lattice of one, then the rest of its lattice in one
        precompute and one lattice evaluation, counted per config."""
        from repro.obs import Observer

        observer = Observer.collecting()
        assert main(argv, observer=observer) == 0
        metrics = observer.metrics
        names = observer.tracer.span_names()
        playbook = argv[0] == "playbook"
        assert metrics.value_of("fastscan.invariant.builds") == 1
        assert names.count("fastscan.invariant") == 1
        assert names.count("fastscan.precompute") == (2 if playbook else 1)
        assert names.count("fastscan.round") == (0 if playbook else scans)
        assert names.count("fastscan.lattice") == (2 if playbook else 0)
        assert "playbook.candidate" not in names
        assert metrics.value_of("probe.rounds_scheduled") == scans
        assert metrics.value_of("fastscan.round_draws.hit") == draw_hits
        assert metrics.value_of("fastscan.round_draws.miss") == scans - draw_hits


class TestEngineIdentity:
    """What an operator reads does not depend on which engine ran.

    Every subcommand's default path (columnar engine) is compared with
    the same driver forced through the wire-level oracle.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", *TINY],
            ["stability", *TANGLED_TINY, "--rounds", "4"],
            ["coverage", *TINY],
            ["loadmap", *TINY],
            ["failure", *TINY],
            ["suggest", *TINY, "--count", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_default_stdout_equals_wire_oracle(self, argv, capsys, wire_oracle):
        assert main(argv) == 0
        default = capsys.readouterr().out
        with wire_oracle():
            assert main(argv) == 0
        assert capsys.readouterr().out == default
        assert default.strip()

    def test_scan_dataset_equals_wire_oracle(self, tmp_path, capsys, wire_oracle):
        def run(path):
            assert main(["scan", *TINY, "--rtt", "--output", str(path)]) == 0
            return capsys.readouterr().out.replace(str(path), "FILE")

        default = run(tmp_path / "engine.tsv")
        with wire_oracle():
            wire = run(tmp_path / "wire.tsv")
        assert wire == default
        assert (tmp_path / "wire.tsv").read_bytes() == (
            tmp_path / "engine.tsv"
        ).read_bytes()

    def test_paper_report_equals_wire_oracle(self, tmp_path, capsys, wire_oracle):
        """``paper`` spells no engine choice, and at ``tiny`` (under 5,000
        blocks) once picked its engine by hitlist size."""

        def run(outdir):
            argv = ["paper", *TINY, "--rounds", "4", "--outdir", str(outdir)]
            assert main(argv) == 0
            return capsys.readouterr().out.replace(str(outdir), "DIR")

        default = run(tmp_path / "engine")
        with wire_oracle():
            wire = run(tmp_path / "wire")
        assert wire == default
        files = sorted(path.name for path in (tmp_path / "engine").iterdir())
        assert "REPORT.md" in files
        assert files == sorted(path.name for path in (tmp_path / "wire").iterdir())
        for name in files:
            assert (tmp_path / "wire" / name).read_bytes() == (
                tmp_path / "engine" / name
            ).read_bytes()

    def test_stability_equals_inline_shards(self, capsys):
        argv = ["stability", *TANGLED_TINY, "--rounds", "4"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--shards", "2", "--workers", "0"]) == 0
        assert capsys.readouterr().out == default

    def test_the_two_paths_really_differ(self, capsys, wire_oracle):
        """Guards the suite itself: default = engine, oracle = wire."""
        from repro.obs import Observer

        def span_names(observer):
            assert main(["scan", *TINY], observer=observer) == 0
            return set(observer.tracer.span_names())

        engine_spans = span_names(Observer.collecting())
        with wire_oracle():
            wire_spans = span_names(Observer.collecting())
        assert "fastscan.round" in engine_spans
        assert "scan.round" not in engine_spans
        assert "scan.round" in wire_spans
        assert "fastscan.round" not in wire_spans


class TestServe:
    def test_serve_ingests_and_exits_zero(self, capsys):
        assert main(["serve", *TINY, "--rounds", "2"]) == 0
        assert "ingested 2 round(s)" in capsys.readouterr().out

    def test_error_on_the_ingest_thread_is_still_a_typed_exit(self, capsys):
        assert main(["serve", *TINY, "--rounds", "0"]) == 2
        assert "repro: error: rounds must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("phase", ["ingest", "linger"])
    def test_sigint_drains_closes_and_writes_artifacts(self, tmp_path, phase):
        import os
        import signal
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        import repro

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        # "ingest": far more rounds than fit before the signal arrives.
        rounds = "2" if phase == "linger" else "100000"
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", *TINY, "--rounds", rounds,
                "--linger-seconds", "120", "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
                "PYTHONUNBUFFERED": "1",
            },
        )
        try:
            url = child.stdout.readline().split()[-1]
            assert url.startswith("http://127.0.0.1:")
            if phase == "linger":
                child.stdout.readline()  # the endpoint list
                assert "ingested 2 round(s)" in child.stdout.readline()
            while True:
                with urllib.request.urlopen(f"{url}/v1/health", timeout=30) as reply:
                    health = json.loads(reply.read())
                if health["rounds_completed"] and (
                    phase == "linger" or health["round_open"]
                ):
                    break
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 130
        assert err == ""
        assert f"wrote metrics to {metrics_path}" in out
        assert f"wrote trace to {trace_path}" in out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["service.requests{route=/v1/health,status=200}"] >= 1
        completed = metrics["gauges"]["service.rounds_completed"]
        assert completed >= health["rounds_completed"]
        if phase == "linger":
            assert completed == 2
        # Every round that began was drained: it ended and was published.
        spans = json.loads(trace_path.read_text())["spans"]
        begun = [
            span for span in spans
            if span["name"] == "cleaning.stream.batch"
            and span["attributes"]["batch"] == 0
        ]
        ended = [span for span in spans if span["name"] == "service.round_end"]
        assert len(begun) == len(ended) == completed
        with pytest.raises(OSError):
            urllib.request.urlopen(f"{url}/v1/health", timeout=5)
