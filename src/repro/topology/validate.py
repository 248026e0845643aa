"""Topology validation: invariant checks over a generated Internet.

Production deployments of the real Verfploeter validate their inputs
(hitlists, BGP feeds) before measuring; this module gives the synthetic
substrate the same treatment.  :func:`validate_internet` checks every
structural invariant the rest of the library assumes and returns a
report instead of asserting, so callers can degrade gracefully on
hand-built topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.netaddr.prefix import Prefix
from repro.topology.asys import ASTier
from repro.topology.internet import Internet
from repro.topology.relationships import Relationship, RelationshipGraph


def overlaps(first: Prefix, second: Prefix) -> bool:
    """True if the two prefixes share any address."""
    return first.network <= second.broadcast and second.network <= first.broadcast


def relationship(graph: RelationshipGraph, of_asn: int, neighbor: int) -> str:
    """What ``neighbor`` is to ``of_asn`` (customer/peer/provider)."""
    for kind, neighbours in (
        (Relationship.CUSTOMER, graph.customers_of(of_asn)),
        (Relationship.PEER, graph.peers_of(of_asn)),
        (Relationship.PROVIDER, graph.providers_of(of_asn)),
    ):
        if neighbor in neighbours:
            return kind
    raise TopologyError(f"AS{neighbor} is not a neighbour of AS{of_asn}")


@dataclass
class ValidationReport:
    """Outcome of one validation pass."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no errors were found (warnings allowed)."""
        return not self.errors

    def raise_if_invalid(self) -> None:
        """Raise :class:`~repro.errors.TopologyError` on any error."""
        if self.errors:
            raise TopologyError(
                f"invalid topology: {len(self.errors)} errors, first: "
                f"{self.errors[0]}"
            )


def validate_internet(internet: Internet) -> ValidationReport:
    """Check every structural invariant of a generated topology."""
    report = ValidationReport()
    graph = internet.graph

    # -- AS-level invariants ------------------------------------------------
    tier1 = [asn for asn, asys in internet.ases.items() if asys.tier == ASTier.TIER1]
    if not tier1:
        report.errors.append("no tier-1 ASes")
    for index, a in enumerate(tier1):
        for b in tier1[index + 1:]:
            if not graph.has_link(a, b):
                report.errors.append(f"tier-1 clique broken: AS{a}-AS{b}")
    for asn, asys in internet.ases.items():
        if asys.tier != ASTier.TIER1 and not graph.providers_of(asn):
            report.errors.append(f"AS{asn} ({asys.name}) has no provider")
        if not asys.pop_ids:
            report.errors.append(f"AS{asn} ({asys.name}) has no PoPs")

    # Provider hierarchy must be acyclic.
    state = {}

    def has_cycle(asn: int) -> bool:
        if state.get(asn) == "done":
            return False
        if state.get(asn) == "visiting":
            return True
        state[asn] = "visiting"
        cyclic = any(has_cycle(p) for p in graph.providers_of(asn))
        state[asn] = "done"
        return cyclic

    for asn in internet.ases:
        if has_cycle(asn):
            report.errors.append(f"provider cycle reachable from AS{asn}")
            break

    # -- prefix invariants ----------------------------------------------------
    announced = sorted(internet.announced, key=lambda e: e.prefix)
    for earlier, later in zip(announced, announced[1:]):
        if overlaps(earlier.prefix, later.prefix):
            report.errors.append(
                f"overlapping announcements {earlier.prefix} / {later.prefix}"
            )
    for entry in announced:
        if entry.origin_asn not in internet.ases:
            report.errors.append(f"{entry.prefix} originated by unknown AS")
        if not entry.populated.size:
            report.warnings.append(f"{entry.prefix} has no populated blocks")

    # -- block invariants ------------------------------------------------------
    blocks, asns, pop_ids = internet.block_table()
    known = np.isin(asns, internet.as_table.asn)
    foreign = known & (internet.pop_table.asn[pop_ids] != asns)
    bad = ~known | foreign
    for block, asn, unknown in zip(*(c[bad].tolist() for c in (blocks, asns, ~known))):
        report.errors.append(
            f"block {block:#x} assigned to unknown AS{asn}" if unknown
            else f"block {block:#x} served by foreign PoP"
        )
    unlocated = int(np.count_nonzero(known & ~internet.geodb.join(blocks)[1]))
    if blocks.size and unlocated / blocks.size > 0.01:
        report.warnings.append(
            f"{unlocated} blocks ({unlocated / blocks.size:.1%}) "
            "have no geolocation"
        )

    return report


#: Sentinel ASN the propagator uses for the anycast service itself.
_SERVICE_SENTINEL = 0


def _valley_free_error(internet: Internet, as_path: Tuple[int, ...]) -> Optional[str]:
    """Why ``as_path`` violates Gao-Rexford export rules, or None.

    The path is stored receiver-first, service sentinel (0) last.
    Read receiver-to-origin, each hop is the relationship of the
    importer to the AS it heard the route from, so a valid path reads

        provider* peer? customer*

    (descend the provider chain backwards, cross at most one peering,
    then climb down the customer chain backwards).  A "valley"
    (customer hop followed by provider/peer, or a second peer hop)
    means some AS exported a peer/provider route to a peer/provider,
    which no rational operator does.
    """
    graph = internet.graph
    # 0 = still in provider hops, 1 = peer hop seen, 2 = in customer hops.
    stage = 0
    for importer, exporter in zip(as_path, as_path[1:]):
        if _SERVICE_SENTINEL in (importer, exporter) or importer == exporter:
            continue  # service hop or origin prepending
        if not graph.has_link(importer, exporter):
            return f"hop AS{importer}<-AS{exporter} has no adjacency"
        relation = relationship(graph, importer, exporter)
        if relation == Relationship.PROVIDER:
            if stage != 0:
                return (
                    f"valley at AS{importer}: provider hop after "
                    f"{'peer' if stage == 1 else 'customer'} hop"
                )
        elif relation == Relationship.PEER:
            if stage == 2:
                return f"valley at AS{importer}: peer hop after customer hop"
            if stage == 1:
                return f"valley at AS{importer}: second peer hop"
            stage = 1
        elif relation == Relationship.CUSTOMER:
            stage = 2
    return None


def validate_rib(
    internet: Internet,
    site_codes: Iterable[str],
    selections: Mapping[int, object],
    rib_entries: Optional[Iterable[Tuple["Prefix", int]]] = None,  # noqa: F821
) -> ValidationReport:
    """Check computed route selections (and an optional RIB dump) for sanity.

    ``selections`` maps ASN -> selection, each with ``primary_site`` and
    ``as_path`` (:func:`repro.bgp.reference.selections` of an outcome),
    and ``site_codes`` are its policy's sites; this layer-1 module never
    imports the BGP layer above it.  Three invariant families:

    * every selected best path is **valley-free** (Gao-Rexford: routes
      learned from peers/providers are never re-exported upward);
    * every selection points at a **declared site** of the policy and
      belongs to a known AS;
    * every RIB entry (``(prefix, origin)`` pairs, e.g. parsed from a
      :mod:`repro.bgp.ribdump` table) matches a prefix actually in
      ``internet.announced`` with the same origin AS.
    """
    report = ValidationReport()
    declared = set(site_codes)

    for asn in sorted(selections):
        selection = selections[asn]
        if selection is None:
            continue
        if asn not in internet.ases:
            report.errors.append(f"selection for unknown AS{asn}")
            continue
        if selection.primary_site not in declared:
            report.errors.append(
                f"AS{asn} selected undeclared site {selection.primary_site!r}"
            )
        if selection.as_path:
            if selection.as_path[0] != asn:
                report.errors.append(
                    f"AS{asn} path does not start with itself: "
                    f"{selection.as_path}"
                )
            if selection.as_path[-1] != _SERVICE_SENTINEL:
                report.errors.append(
                    f"AS{asn} path does not end at the service: "
                    f"{selection.as_path}"
                )
            valley = _valley_free_error(internet, selection.as_path)
            if valley is not None:
                report.errors.append(
                    f"AS{asn} best path {selection.as_path} is not "
                    f"valley-free: {valley}"
                )

    if rib_entries is not None:
        announced = {entry.prefix: entry.origin_asn for entry in internet.announced}
        for prefix, origin in rib_entries:
            expected = announced.get(prefix)
            if expected is None:
                report.errors.append(
                    f"RIB prefix {prefix} is not announced by the topology"
                )
            elif expected != origin:
                report.errors.append(
                    f"RIB prefix {prefix} originated by AS{origin}, "
                    f"topology announces it from AS{expected}"
                )

    return report
