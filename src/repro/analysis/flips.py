"""Table 7 and Figure 9: catchment stability and flip concentration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.analysis.results import StabilitySeries
from repro.topology.internet import Internet


@dataclass(frozen=True)
class FlipTableRow:
    """One row of Table 7: an AS involved in catchment flips."""

    rank: int
    asn: int
    name: str
    flipping_blocks: int
    flips: int
    fraction: float


def flip_table(
    series: StabilitySeries, internet: Internet, top: int = 5
) -> List[FlipTableRow]:
    """Aggregate flips per AS: the paper's Table 7 (plus Other/Total rows)."""
    flips_by_as: Dict[int, int] = {}
    blocks_by_as: Dict[int, Set[int]] = {}
    flip_blocks = list(series.flip_counts)
    # One bulk join replaces a dict probe per flipping block; walking the
    # result in flip_counts order keeps first-seen AS insertion order, so
    # the stable sort below ranks ties exactly as before.
    asns = (
        internet.asns_of_blocks(np.asarray(flip_blocks, dtype=np.int64))
        if flip_blocks
        else []
    )
    for block, asn_value in zip(flip_blocks, asns):
        asn = int(asn_value)
        count = series.flip_counts[block]
        flips_by_as[asn] = flips_by_as.get(asn, 0) + count
        blocks_by_as.setdefault(asn, set()).add(block)
    total_flips = series.total_flips()
    total_blocks = len(series.flipping_blocks())
    ranked: List[Tuple[int, int]] = sorted(
        flips_by_as.items(), key=lambda item: -item[1]
    )
    rows: List[FlipTableRow] = []
    for rank, (asn, flips) in enumerate(ranked[:top], 1):
        rows.append(
            FlipTableRow(
                rank=rank,
                asn=asn,
                name=internet.as_table.name[internet.as_row(asn)],
                flipping_blocks=len(blocks_by_as[asn]),
                flips=flips,
                fraction=flips / total_flips if total_flips else 0.0,
            )
        )
    other_flips = sum(flips for _, flips in ranked[top:])
    other_blocks = sum(len(blocks_by_as[asn]) for asn, _ in ranked[top:])
    rows.append(
        FlipTableRow(
            rank=0,
            asn=-1,
            name="Other",
            flipping_blocks=other_blocks,
            flips=other_flips,
            fraction=other_flips / total_flips if total_flips else 0.0,
        )
    )
    rows.append(
        FlipTableRow(
            rank=0,
            asn=-1,
            name="Total",
            flipping_blocks=total_blocks,
            flips=total_flips,
            fraction=1.0 if total_flips else 0.0,
        )
    )
    return rows


def format_flip_table(rows: List[FlipTableRow]) -> str:
    """Render Table 7."""
    return render_table(
        ["#", "AS", "IPs (/24s)", "Flips", "Frac."],
        [
            (
                row.rank or "",
                row.name if row.asn < 0 else f"AS{row.asn} {row.name}",
                row.flipping_blocks,
                row.flips,
                f"{row.fraction:.2f}",
            )
            for row in rows
        ],
        title="Table 7: top ASes involved in catchment flips",
    )


def format_stability_table(series: StabilitySeries, every: int = 8) -> str:
    """Render a condensed Figure 9 table plus the medians the paper quotes."""
    sampled = [
        entry for index, entry in enumerate(series.rounds) if index % every == 0
    ]
    table = render_table(
        ["round", "stable", "flipped", "to_NR", "from_NR"],
        [
            (entry.round_id, entry.stable, entry.flipped, entry.to_nr, entry.from_nr)
            for entry in sampled
        ],
        title="Figure 9: per-round stability (sampled)",
    )
    return (
        f"{table}\n"
        f"medians over {series.round_count} rounds: "
        f"stable={series.median_of('stable'):.0f} "
        f"flipped={series.median_of('flipped'):.0f} "
        f"to_NR={series.median_of('to_nr'):.0f} "
        f"from_NR={series.median_of('from_nr'):.0f}"
    )
