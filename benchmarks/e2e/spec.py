"""Names and sizes of the operator-level benchmark, in one place.

The harness (``run.py``/``workloads.py``), the child processes
(``pipelines.py``) and the traced decomposition (``layers.py``) all
read their sizes from here, so the end-to-end run and its per-layer
decomposition cannot drift apart.  ``SMOKE`` shrinks every size for
the under-a-minute mode; the names never change.

Sizes are what fits the driver's budget (about 30 s per run, 114
runs) on a 2-core box while leaving room for at least four fresh
child processes per run — see README.md for the measured baseline and
for why the ISSUE's larger sizes (medium/large scenarios, a 342k-block
synthetic Internet, 20,000 queries) were cut down.
"""

from __future__ import annotations

from typing import Dict, Tuple

SCENARIO = "tangled"

#: name -> one-line reason the workload exists (mirrored in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "stability_default": (
        "repro stability on the default scalar per-probe engine: "
        "core.verfploeter/icmp dominate, routing and topology are bypassed"
    ),
    "playbook_default": (
        "repro playbook, 101 policies x 1 round: bgp.delta and fastscan "
        "precompute dominate, round evaluation is under a tenth"
    ),
    "playbook_pooled": (
        "the same playbook through ShardPool --workers 1, table store warm: "
        "core.pool, core.sharding and core.tables on byte-identical output"
    ),
    "build_synth": (
        "build_internet + build_day_load of a seed-built ~65k-block Internet: "
        "topology and traffic only, bypasses every scan engine"
    ),
    "serve_queries": (
        "MappingService ingest, then a closed loop of GETs over loopback: "
        "service, wsgiref and the always-on observer; scans are set-up only"
    ),
}

#: What one unit of ``work_per_s`` is, per workload.
WORK_UNITS: Dict[str, str] = {
    "stability_default": "block-rounds (hitlist blocks x rounds)",
    "playbook_default": "config-blocks (lattice configs x hitlist blocks)",
    "playbook_pooled": "config-blocks (lattice configs x hitlist blocks)",
    "build_synth": "blocks of the built Internet",
    "serve_queries": "HTTP queries answered (query phase only)",
}

FULL = {
    "size": "full",
    "stability_scale": "small",
    "stability_rounds": 6,
    "playbook_scale": "small",
    "playbook_depth": 2,
    "pool_workers": 1,
    "synth": {
        "tier1_count": 10,
        "transit_count": 200,
        "stub_count": 1500,
        "max_blocks_per_prefix": 128,
        "block_density_scale": 2.0,
        "address_pool": "64.0.0.0/2",
    },
    "synth_min_blocks": 60_000,
    "serve_scale": "small",
    "serve_rounds": 4,
    "serve_batch": 512,
    "serve_queries": 3000,
}

SMOKE = {
    "size": "smoke",
    "stability_scale": "tiny",
    "stability_rounds": 4,
    "playbook_scale": "tiny",
    "playbook_depth": 2,
    "pool_workers": 1,
    "synth": {
        "tier1_count": 6,
        "transit_count": 50,
        "stub_count": 400,
        "max_blocks_per_prefix": 24,
        "block_density_scale": 1.0,
        "address_pool": "64.0.0.0/2",
    },
    "synth_min_blocks": 2_000,
    "serve_scale": "tiny",
    "serve_rounds": 3,
    "serve_batch": 512,
    "serve_queries": 500,
}

#: Every playbook lattice on the nine-site deployment at depth 2.
PLAYBOOK_CONFIGS = 101

#: (kind, share) of the query mix; catchment blocks are drawn in
#: proportion to their day-load query volume (heavy-tailed).
QUERY_MIX: Tuple[Tuple[str, float], ...] = (
    ("catchment", 0.90),
    ("load", 0.05),
    ("diff", 0.03),
    ("metrics", 0.01),
    ("health", 0.005),
    ("malformed", 0.005),
)

#: (path, expected status) of the deliberately malformed requests.
MALFORMED: Tuple[Tuple[str, int], ...] = (
    ("/v1/catchment/not-a-block", 400),
    ("/v1/diff?rounds=0", 400),
    ("/v1/diff?rounds=99", 400),
    ("/v1/no-such-endpoint", 404),
)

#: Catchment answers compared against ``state.view.catchment.site_of``.
CATCHMENT_SAMPLE = 200
