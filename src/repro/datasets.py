"""Scan dataset serialisation.

The paper releases all of its measurement datasets; this module gives
scans the same treatment: a one-line-per-block TSV format carrying the
catchment and RTT of every mapped /24, plus the scan's metadata and
cleaning statistics, round-trippable through
:func:`write_scan` / :func:`read_scan`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TextIO, TypeVar

from repro.anycast.catchment import CatchmentMap
from repro.collector.results import BlockValueMap
from repro.core.verfploeter import ScanResult, ScanStats
from repro.errors import DatasetError
from repro.netaddr.blocks import format_block, parse_block

_FORMAT_VERSION = 1

_T = TypeVar("_T")

#: The stats header's keys, in :class:`ScanStats` field order.
_STATS_FIELDS = ("sent", "received", "wrong_round", "unsolicited", "late", "duplicates", "kept")


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
    for block, site in scan.catchment.items():
        rtt = rtts.get(block)
        rtt_text = f"{rtt:.3f}" if rtt is not None else "-"
        stream.write(f"{format_block(block)}\t{site}\t{rtt_text}\n")


def _parse_kv(text: str, where: str, required: Sequence[str]) -> dict:
    pairs = {}
    for field in text.split():
        key, _, value = field.partition("=")
        if not value:
            raise DatasetError(f"malformed header field {field!r}")
        pairs[key] = value
    for key in required:
        if key not in pairs:
            raise DatasetError(f"{where} lacks {key}=")
    return pairs


def _convert(convert: Callable[[str], _T], text: str, what: str) -> _T:
    """``convert(text)``, or a :class:`DatasetError` naming ``what``."""
    try:
        return convert(text)
    except ValueError:
        raise DatasetError(f"{what}: bad value {text!r}") from None


def read_scan(stream: TextIO) -> ScanResult:
    """Parse a dataset produced by :func:`write_scan`.

    Anything :func:`write_scan` never writes raises :class:`DatasetError`
    naming the line: a malformed row, a block listed twice, a site
    missing from the ``# sites=`` header, an RTT that is not a finite
    number.
    """
    magic = stream.readline().strip()
    if magic != f"# verfploeter-scan v{_FORMAT_VERSION}":
        raise DatasetError(f"not a verfploeter scan dataset: {magic!r}")
    meta_line = stream.readline().strip()
    if not meta_line.startswith("# "):
        raise DatasetError("missing metadata header")
    meta = _parse_kv(meta_line[2:], "metadata header", ("dataset", "round", "start", "duration"))
    sites_line = stream.readline().strip()
    if not sites_line.startswith("# sites="):
        raise DatasetError("missing sites header")
    site_codes = sites_line[len("# sites="):].split(",")
    stats_line = stream.readline().strip()
    if not stats_line.startswith("# stats "):
        raise DatasetError("missing stats header")
    stats_fields = _parse_kv(stats_line[len("# stats "):], "stats header", _STATS_FIELDS)

    sites = set(site_codes)
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
        if block in mapping:
            raise DatasetError(f"line {line_number}: block {fields[0]} listed twice")
        if fields[1] not in sites:
            raise DatasetError(
                f"line {line_number}: site {fields[1]!r} not in the sites header"
            )
        mapping[block] = fields[1]
        if fields[2] != "-":
            rtt = _convert(float, fields[2], f"line {line_number} RTT")
            if not math.isfinite(rtt):
                raise DatasetError(f"line {line_number} RTT: bad value {fields[2]!r}")
            rtts[block] = rtt

    counts = [
        _convert(int, stats_fields[key], f"stats header {key}=") for key in _STATS_FIELDS
    ]
    return ScanResult(
        dataset_id=meta["dataset"],
        round_id=_convert(int, meta["round"], "metadata header round="),
        start_time=_convert(float, meta["start"], "metadata header start="),
        duration_seconds=_convert(float, meta["duration"], "metadata header duration="),
        catchment=CatchmentMap.from_mapping(site_codes, mapping),
        stats=ScanStats(*counts),
        rtts=BlockValueMap.from_mapping(rtts),
    )
