"""Ablation: single probe per /24 vs retrying.

DESIGN.md decision #3: the paper sends exactly one probe per block with
no retries, accepting ~55% coverage, and suggests retries as future
work.  A second attempt recovers the blocks lost to per-round churn
(but never the stable non-responders), quantifying the paper's
"could improve the response rate" remark.
"""

from __future__ import annotations


def test_ablation_retries(benchmark, broot, broot_vp, broot_routing_may):
    first = benchmark.pedantic(
        lambda: broot_vp.run_scan(
            routing=broot_routing_may, round_id=50
        ),
        rounds=1,
        iterations=1,
    )
    # Retry pass: an immediate second attempt experiences fresh churn;
    # modelled as an independent round against the same routing.
    second = broot_vp.run_scan(
        routing=broot_routing_may, round_id=51
    )
    combined = dict(second.catchment.items())
    combined.update(dict(first.catchment.items()))

    stable_responders = sum(
        1
        for block in broot.internet.blocks
        if broot.internet.host_model.is_stable_responder(
            block, broot.internet.country_of_block(block)
        )
    )
    print()
    print("Ablation: coverage of one probe per /24 vs probe+retry")
    print(f"  probed blocks:               {first.stats.probes_sent}")
    print(f"  stable responders (truth):   {stable_responders}")
    print(f"  single probe coverage:       {first.mapped_blocks}")
    print(f"  with one retry:              {len(combined)}")
    gain = len(combined) - first.mapped_blocks
    print(f"  retry gain:                  +{gain} blocks "
          f"({gain / first.mapped_blocks:.1%})")

    assert len(combined) > first.mapped_blocks
    # The retry can only recover churned responders, never the ~45% of
    # blocks with no responder at all.
    assert len(combined) <= stable_responders
