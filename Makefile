# Convenience targets for the verfploeter reproduction.

.PHONY: install test lint lint-cold lint-sarif bench bench-verbose bench-delta bench-obs bench-sharded bench-sharded-smoke bench-playbook bench-e2e-smoke docs examples reach determinism coldstart report serve-smoke all

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src python -m pytest tests/

lint:
	PYTHONPATH=src python -m repro.lint src tests benchmarks examples tools

# Cold lint: drop the incremental cache first, then relint everything.
lint-cold:
	rm -rf .reprolint_cache
	PYTHONPATH=src python -m repro.lint src tests benchmarks examples tools

# Machine-readable lint report for CI upload.
lint-sarif:
	PYTHONPATH=src python -m repro.lint src tests benchmarks examples tools --format=sarif --output=reprolint.sarif

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

bench-verbose:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s

# Regenerate the incremental-propagation perf baseline (BENCH_delta_routing.json).
bench-delta:
	PYTHONPATH=src python -m pytest benchmarks/bench_extension_delta_routing.py --benchmark-only -s

# Regenerate the observability-overhead baseline (BENCH_observability.json).
bench-obs:
	PYTHONPATH=src python -m pytest benchmarks/bench_extension_observability.py --benchmark-only -s

# Regenerate the sharded-scan perf baseline (BENCH_sharded_scan.json):
# the full million-block xlarge series.  Slow (builds a 1.4M-block
# topology); the smoke variant below runs in `make bench` and CI.
bench-sharded:
	REPRO_SHARDED_BENCH=full PYTHONPATH=src python -m pytest benchmarks/bench_extension_sharded_scan.py --benchmark-only -s

# Small-scale variant: two sharded series on one persistent ShardPool
# plus the pooled load join, all asserted bit-identical.
bench-sharded-smoke:
	PYTHONPATH=src python -m pytest benchmarks/bench_extension_sharded_scan.py --benchmark-only -s

# Regenerate the playbook-search perf baseline (BENCH_playbook.json):
# cache-accelerated search vs scratch; the warm pass asserted to be pure
# memo hits, artifacts asserted byte-identical.
bench-playbook:
	PYTHONPATH=src python -m pytest benchmarks/bench_extension_playbook.py --benchmark-only -s

# Operator-level benchmark (BENCHMARK.json), one short repetition per
# workload with every output check on: default stdout == sharded
# stdout, playbook artifacts byte-identical across paths, served
# answers == published state.  Exits non-zero on any failed check.
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke

# Documentation gate: every intra-repo markdown link resolves, and the
# README quickstart (observer included) still runs end to end.
docs:
	python tools/checkdocs.py
	PYTHONPATH=src python examples/quickstart.py > /dev/null

# Every example script end to end (`docs` runs only the quickstart).
examples:
	for script in examples/*.py; do echo "== $$script"; PYTHONPATH=src python $$script > /dev/null || exit 1; done

# Reach audit: every CLI subcommand and example under a profile hook;
# fails on a module no operator path runs that tools/reach.py does not
# declare (oracle / library / types), and on a declared one that ran.
reach:
	PYTHONPATH=src python tools/reach.py --check
	PYTHONPATH=src python -m pytest tests/test_reach.py -m reach -q

# Execution check of the determinism contract: every reach-matrix form at
# tiny and small, in two fresh interpreters (PYTHONHASHSEED=0 and =1),
# byte-identical, and every pooled form equal to its in-process form.
determinism:
	PYTHONPATH=src python tools/determinism.py

# Cold-start gate: in a fresh interpreter per form, `--help` loads no
# numpy, and stability/scan/playbook load no oracle or ledger module.
coldstart:
	PYTHONPATH=src python -m pytest tests/test_cold_start.py -q

report:
	PYTHONPATH=src python -m repro paper --scenario broot --scale small --outdir repro-report

# Boot two same-seed mapping daemons, query every /v1 endpoint over
# real HTTP, and require byte-identical data responses.
serve-smoke:
	PYTHONPATH=src python tools/serve_smoke.py

all: lint docs examples reach determinism coldstart test serve-smoke bench-e2e-smoke bench
