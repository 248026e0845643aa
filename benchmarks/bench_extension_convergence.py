"""Extension: BGP convergence cost of the paper's prepending experiments.

The paper's traffic engineering (§6.1) is trial and error: announce a
configuration, wait for convergence, measure, repeat.  The event-driven
update simulator quantifies what each trial costs the routing system —
UPDATE messages and selection changes — and cross-checks that the
converged state matches the analytic engine used everywhere else.
"""

from __future__ import annotations

from repro.analysis.report import render_table
from repro.bgp.propagation import RoutingConfig, compute_routes
from repro.bgp.reference import selection_of
from repro.bgp.updates import BgpUpdateSimulator
from repro.core.experiments import BROOT_PREPEND_CONFIGS


def test_extension_convergence_cost(benchmark, broot):
    config = RoutingConfig(pin_probability=0.0)
    rows = []
    for label, prepends in BROOT_PREPEND_CONFIGS:
        policy = broot.service.policy(prepends=prepends)
        if label == "equal":
            outcome = benchmark.pedantic(
                lambda p=policy: BgpUpdateSimulator(
                    broot.internet, p, config
                ).run(),
                rounds=1,
                iterations=1,
            )
        else:
            outcome = BgpUpdateSimulator(broot.internet, policy, config).run()
        # Cross-check against the analytic fixed point.
        analytic = compute_routes(broot.internet, policy, config=config)
        for asn in broot.internet.ases:
            a = selection_of(analytic, asn)
            s = outcome.selection_of(asn)
            assert a.route_class == s.route_class
            assert a.path_length == s.cost
        stats = outcome.stats
        rows.append(
            (label, stats.messages, stats.announcements,
             stats.withdrawals, stats.selection_changes)
        )
    print()
    print(render_table(
        ["config", "messages", "announcements", "withdrawals", "changes"],
        rows,
        title="Extension: UPDATE traffic to converge each configuration",
    ))
    print(f"(analytic and event-driven engines agree on all "
          f"{len(broot.internet.ases)} ASes' route class and cost)")
    assert all(row[1] > len(broot.internet.ases) for row in rows)
