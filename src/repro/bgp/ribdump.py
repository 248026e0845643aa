"""RouteViews-style RIB dumps.

The paper maps scanned addresses to AS numbers with Route Views and
RIPE RIS data (§4).  This module plays that role: it exports the
topology's announced prefixes as a RouteViews-like text table and
rebuilds a longest-prefix-match origin lookup from such a table — the
exact pipeline stage an external analyst would run, without touching
the simulator's internals.  It can also dump the per-AS paths toward
the anycast prefix, the way a route collector peered with every AS
would see them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO

from repro.bgp.propagation import RoutingOutcome
from repro.bgp.reference import selections
from repro.errors import DatasetError
from repro.netaddr.prefix import Prefix
from repro.netaddr.trie import LongestPrefixTrie
from repro.topology.internet import Internet


def write_rib_dump(internet: Internet, stream: TextIO) -> None:
    """Write every announced prefix as ``<prefix> <origin ASN>``."""
    stream.write("# prefix origin-as\n")
    for entry in sorted(internet.announced, key=lambda e: e.prefix):
        stream.write(f"{entry.prefix} {entry.origin_asn}\n")


class OriginLookup:
    """Address/block -> origin-AS lookup built from a RIB dump."""

    def __init__(self, trie: LongestPrefixTrie) -> None:
        self._trie = trie

    def __len__(self) -> int:
        return len(self._trie)

    def origin_of_address(self, address: int) -> Optional[int]:
        """Origin ASN of ``address`` by longest-prefix match, or None."""
        return self._trie.lookup_value(address)

    def origin_of_block(self, block: int) -> Optional[int]:
        """Origin ASN of a /24 ``block``, or None when unrouted."""
        return self._trie.lookup_value(block << 8)

    def prefix_of_address(self, address: int) -> Optional[Prefix]:
        """The covering announced prefix of ``address``, or None."""
        match = self._trie.lookup(address)
        return match[0] if match is not None else None


def read_rib_dump(stream: TextIO) -> OriginLookup:
    """Parse a table written by :func:`write_rib_dump`."""
    trie: LongestPrefixTrie = LongestPrefixTrie()
    for line_number, line in enumerate(stream, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise DatasetError(
                f"RIB dump line {line_number}: expected 2 fields, got {len(fields)}"
            )
        prefix_text, asn_text = fields
        if not asn_text.isdigit():
            raise DatasetError(f"RIB dump line {line_number}: bad ASN {asn_text!r}")
        trie.insert(Prefix(prefix_text), int(asn_text))
    if len(trie) == 0:
        raise DatasetError("RIB dump contains no routes")
    return OriginLookup(trie)


def write_path_dump(routing: RoutingOutcome, stream: TextIO) -> None:
    """Dump every AS's selected path to the anycast prefix.

    One line per AS: ``<asn>: <as path>`` with the service shown as
    ``ORIGIN`` — what a route collector multihop-peered with each AS
    would record for the service prefix.
    """
    stream.write(f"# paths to {routing.policy.site_codes}\n")
    chosen = selections(routing)
    for asn in sorted(chosen):
        hops = " ".join(
            "ORIGIN" if hop == 0 else str(hop) for hop in chosen[asn].as_path
        )
        stream.write(f"{asn}: {hops}\n")


def read_path_dump(stream: TextIO) -> Dict[int, List[int]]:
    """Parse :func:`write_path_dump` output into ``asn -> path`` (0=origin)."""
    paths: Dict[int, List[int]] = {}
    for line_number, line in enumerate(stream, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        if not head.strip().isdigit() or not tail.strip():
            raise DatasetError(f"path dump line {line_number}: malformed {line!r}")
        hops = [
            0 if token == "ORIGIN" else int(token)
            for token in tail.split()
        ]
        paths[int(head)] = hops
    if not paths:
        raise DatasetError("path dump contains no paths")
    return paths
