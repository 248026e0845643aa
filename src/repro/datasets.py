"""Scan dataset serialisation.

The paper releases all of its measurement datasets; this module gives
scans the same treatment: a one-line-per-block TSV format carrying the
catchment and RTT of every mapped /24, plus the scan's metadata and
cleaning statistics, round-trippable through
:func:`write_scan` / :func:`read_scan`.
"""

from __future__ import annotations

from typing import TextIO

from repro.anycast.catchment import CatchmentMap
from repro.collector.results import BlockValueMap
from repro.core.verfploeter import ScanResult, ScanStats
from repro.errors import DatasetError
from repro.netaddr.blocks import format_block, parse_block

_FORMAT_VERSION = 1


def write_scan(scan: ScanResult, stream: TextIO) -> None:
    """Serialise ``scan`` as a self-describing TSV dataset."""
    stats = scan.stats
    stream.write(f"# verfploeter-scan v{_FORMAT_VERSION}\n")
    stream.write(
        f"# dataset={scan.dataset_id} round={scan.round_id} "
        f"start={scan.start_time:.6f} duration={scan.duration_seconds:.6f}\n"
    )
    stream.write(
        f"# sites={','.join(scan.catchment.site_codes)}\n"
    )
    stream.write(
        f"# stats sent={stats.probes_sent} received={stats.replies_received} "
        f"wrong_round={stats.wrong_round} unsolicited={stats.unsolicited} "
        f"late={stats.late} duplicates={stats.duplicates} kept={stats.kept}\n"
    )
    rtts = scan.rtts or {}
    for block in sorted(scan.catchment.blocks()):
        site = scan.catchment.site_of(block)
        rtt = rtts.get(block)
        rtt_text = f"{rtt:.3f}" if rtt is not None else "-"
        stream.write(f"{format_block(block)}\t{site}\t{rtt_text}\n")


def _parse_kv(text: str) -> dict:
    pairs = {}
    for field in text.split():
        key, _, value = field.partition("=")
        if not value:
            raise DatasetError(f"malformed header field {field!r}")
        pairs[key] = value
    return pairs


def read_scan(stream: TextIO) -> ScanResult:
    """Parse a dataset produced by :func:`write_scan`."""
    magic = stream.readline().strip()
    if magic != f"# verfploeter-scan v{_FORMAT_VERSION}":
        raise DatasetError(f"not a verfploeter scan dataset: {magic!r}")
    meta_line = stream.readline().strip()
    if not meta_line.startswith("# "):
        raise DatasetError("missing metadata header")
    meta = _parse_kv(meta_line[2:])
    sites_line = stream.readline().strip()
    if not sites_line.startswith("# sites="):
        raise DatasetError("missing sites header")
    site_codes = sites_line[len("# sites="):].split(",")
    stats_line = stream.readline().strip()
    if not stats_line.startswith("# stats "):
        raise DatasetError("missing stats header")
    stats_fields = _parse_kv(stats_line[len("# stats "):])

    mapping = {}
    rtts = {}
    for line_number, line in enumerate(stream, 5):
        line = line.strip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DatasetError(
                f"line {line_number}: expected 3 fields, got {len(fields)}"
            )
        block = parse_block(fields[0])
        mapping[block] = fields[1]
        if fields[2] != "-":
            rtts[block] = float(fields[2])

    stats = ScanStats(
        probes_sent=int(stats_fields["sent"]),
        replies_received=int(stats_fields["received"]),
        wrong_round=int(stats_fields["wrong_round"]),
        unsolicited=int(stats_fields["unsolicited"]),
        late=int(stats_fields["late"]),
        duplicates=int(stats_fields["duplicates"]),
        kept=int(stats_fields["kept"]),
    )
    return ScanResult(
        dataset_id=meta["dataset"],
        round_id=int(meta["round"]),
        start_time=float(meta["start"]),
        duration_seconds=float(meta["duration"]),
        catchment=CatchmentMap.from_mapping(site_codes, mapping),
        stats=stats,
        rtts=BlockValueMap.from_mapping(rtts),
    )
