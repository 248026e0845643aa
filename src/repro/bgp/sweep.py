"""Gao-Rexford propagation as an array program.

:func:`propagate` resolves a batch of announcement policies — a whole
playbook lattice, or the single policy of
:func:`~repro.bgp.propagation.compute_routes` — as one flattened
(configs x ASes) problem of integer array passes.  Every column it
yields equals the one :func:`table_from_selections` derives from the
scalar reference (``repro.bgp.propagation._Propagator``);
``tests/test_bgp_sweep.py`` holds the two together.

**Edge tables.**  One CSR table per relationship class, rows grouped by
the *importing* AS in ascending-ASN order and each row in the graph's
neighbour order (the scalar candidate order): ``up`` (a provider
importing from its customers), ``peer``, and ``down`` (a customer
importing from its providers).  Per-edge columns are the integer edge
cost, the pin draw, and the two hash draws (import-site pick and
tie-break prefix).  All are pure in (seed, config, AS pair), so the
tables are built once per (internet, config) and memoised.

**Phases**, each over (configs x ASes) columns:

1. customer distances by min-plus relaxation up the ``up`` table to a
   fixpoint (the values the scalar Dijkstra finds);
2. the peer import, one pass;
3. provider distances by the same relaxation down the ``down`` table,
   holders of customer/peer routes held fixed.

An AS's *near set* (per-site minimum delta within slack) depends on the
sites its neighbours export, which are weighted picks over *their* near
sets.  Phases 1 and 3 therefore fill near sets by dependency level: an
edge's exporter is resolved at a lower level than its importer, so each
level is one vectorised weighted pick plus one scatter-min.  The order
in which the scalar propagator resolves ASes — ascending (distance,
ASN) — becomes an edge mask: customer ``c`` of ``a`` contributes iff
``(d[c], c) < (d[a], a)``, and provider ``p`` iff it holds a customer or
peer route or ``(pd[p], p) < (pd[a], a)``.  Primaries are the tie-hash
argmin over exact candidates, ties to the earlier candidate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.bgp.route import RouteClass
from repro.errors import RoutingError
from repro.rng import mix64_np, uniform_unit_np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.bgp.policy import AnnouncementPolicy
    from repro.bgp.propagation import RoutingConfig
    from repro.topology.internet import Internet

EDGE_SALT = 0x45444745
PIN_SALT = 0x50494E53
DRIFT_SALT = 0x44524946

#: Route class or site index of "none" in every column.
NO_ROUTE = -1
_INF = 1 << 30


def site_hash(site_code: str) -> int:
    """A site code's first 8 UTF-8 bytes as a little-endian integer."""
    return int.from_bytes(site_code.encode("utf-8")[:8].ljust(8, b"\0"), "little")


@dataclass(frozen=True)
class AsColumns:
    """Per-AS and per-PoP columns of one Internet (routing-independent).

    AS index ``i`` is the ``i``-th smallest ASN, so comparing indexes
    compares ASNs — the scalar resolution order's tie-break.
    """

    asns: np.ndarray  # int64 ASN per AS index, ascending
    index: Dict[int, int]  # ASN -> AS index
    multi_pop: np.ndarray  # bool
    flipper: np.ndarray  # bool
    flip_hash: np.ndarray  # uint64 flipper-fallback draw per AS
    pop_as: np.ndarray  # intp AS index per PoP (pop_id order)
    pop_hash: np.ndarray  # uint64 hot-potato draw per PoP


@dataclass(frozen=True)
class EdgeTable:
    """One relationship class as CSR over importing ASes."""

    offsets: np.ndarray  # intp (ASes + 1): row i is edges offsets[i]:offsets[i+1]
    importer: np.ndarray  # intp AS index per edge, ascending
    exporter: np.ndarray  # intp AS index per edge
    cost: np.ndarray  # int32 routing cost of importing over the edge
    pinned: np.ndarray  # bool: the importer pins the exporter (down only)
    pick_hash: np.ndarray  # uint64 draw of the exporter's site for this importer
    tie_prefix: np.ndarray  # uint64 tie-break hash before the site is absorbed
    rows: np.ndarray  # intp importers with at least one edge
    starts: np.ndarray  # intp first edge of each of ``rows``


@dataclass(frozen=True)
class EdgeTables:
    """The three relationship classes of one (internet, config)."""

    up: EdgeTable
    peer: EdgeTable
    down: EdgeTable


_AS_COLUMNS: "weakref.WeakKeyDictionary[Internet, AsColumns]" = weakref.WeakKeyDictionary()
_EDGE_TABLES: "weakref.WeakKeyDictionary[Internet, Dict[RoutingConfig, EdgeTables]]" = (
    weakref.WeakKeyDictionary()
)


def as_columns(internet: "Internet") -> AsColumns:
    """The memoised per-AS and per-PoP columns of ``internet``."""
    columns = _AS_COLUMNS.get(internet)
    if columns is None:
        asns = np.array(sorted(internet.ases), dtype=np.int64)
        index = {int(asn): i for i, asn in enumerate(asns)}
        systems = [internet.ases[int(asn)] for asn in asns]
        pop_ids = np.array([pop.pop_id for pop in internet.pops], dtype=np.uint64)
        columns = _AS_COLUMNS[internet] = AsColumns(
            asns=asns,
            index=index,
            multi_pop=np.array([asys.is_multi_pop for asys in systems], dtype=bool),
            flipper=np.array([asys.flipper for asys in systems], dtype=bool),
            flip_hash=mix64_np(asns.astype(np.uint64) * np.uint64(0xA5A5)),
            pop_as=np.array([index[pop.asn] for pop in internet.pops], dtype=np.intp),
            pop_hash=mix64_np(pop_ids * np.uint64(0x51ED) + np.uint64(17)),
        )
    return columns


def _edge_costs(seed: int, config: "RoutingConfig", edge_ids: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.bgp.propagation.edge_cost`, same float buckets."""
    draw = uniform_unit_np(seed, EDGE_SALT, edge_ids)
    if config.era:
        drifted = uniform_unit_np(seed, DRIFT_SALT, edge_ids) < config.era_drift_probability
        draw = np.where(drifted, uniform_unit_np(seed, DRIFT_SALT, edge_ids, config.era), draw)
    cumulative = []
    total = 0.0
    for weight in config.jitter_weights:
        total += weight
        cumulative.append(total)
    below = draw[:, None] < np.array(cumulative)[None, :]
    jitter = np.where(below.any(axis=1), below.argmax(axis=1), len(cumulative) - 1)
    return (1 + jitter).astype(np.int32)


def _edge_table(
    seed: int, columns: AsColumns, neighbours, config: "RoutingConfig", pins: bool
) -> EdgeTable:
    """CSR of ``neighbours(asn)`` per importing AS, with its draws."""
    importer: List[int] = []
    exporter: List[int] = []
    offsets = [0]
    index = columns.index
    for i, asn in enumerate(columns.asns.tolist()):
        for neighbour in neighbours(asn):
            importer.append(i)
            exporter.append(index[neighbour])
        offsets.append(len(importer))
    imp = np.array(importer, dtype=np.intp)
    exp = np.array(exporter, dtype=np.intp)
    imp_asn = columns.asns[imp].astype(np.uint64)
    exp_asn = columns.asns[exp].astype(np.uint64)
    if pins:
        pinned = (
            uniform_unit_np(seed, PIN_SALT, imp_asn * np.uint64(524287) + exp_asn)
            < config.pin_probability
        )
    else:
        pinned = np.zeros(imp.size, dtype=bool)
    with np.errstate(over="ignore"):
        pick_hash = mix64_np(
            (exp_asn * np.uint64(0x9E3779B1)) ^ (imp_asn * np.uint64(0x85EBCA6B))
        )
        tie_prefix = mix64_np(imp_asn * np.uint64(0x9E37) + exp_asn)
    offsets_array = np.array(offsets, dtype=np.intp)
    rows = np.flatnonzero(np.diff(offsets_array) > 0)
    return EdgeTable(
        offsets=offsets_array,
        importer=imp,
        exporter=exp,
        cost=_edge_costs(seed, config, imp_asn * np.uint64(131071) + exp_asn),
        pinned=pinned,
        pick_hash=pick_hash,
        tie_prefix=tie_prefix,
        rows=rows,
        starts=offsets_array[rows],
    )


def edge_tables(internet: "Internet", config: "RoutingConfig") -> EdgeTables:
    """The memoised CSR edge tables of ``internet`` under ``config``."""
    per_config = _EDGE_TABLES.setdefault(internet, {})
    tables = per_config.get(config)
    if tables is None:
        columns = as_columns(internet)
        graph = internet.graph
        seed = internet.seed
        tables = per_config[config] = EdgeTables(
            up=_edge_table(seed, columns, graph.customers_of, config, False),
            peer=_edge_table(seed, columns, graph.peers_of, config, False),
            down=_edge_table(seed, columns, graph.providers_of, config, True),
        )
    return tables


@dataclass(frozen=True)
class RouteTable:
    """One policy's routes as per-AS columns (row = AS index).

    Site indexes refer to ``site_codes``, which ascend, so ordering by
    index orders by code.
    """

    site_codes: Tuple[str, ...]
    route_class: np.ndarray  # int8 RouteClass, NO_ROUTE where the prefix never arrived
    path_length: np.ndarray  # int16
    primary: np.ndarray  # int16 site index of the primary route
    pinned: np.ndarray  # bool
    alternate: np.ndarray  # int16 site index for the flip model, NO_ROUTE = none
    near: np.ndarray  # (ASes, sites) int8 delta within slack, dtype max = absent


class PopRoutes(NamedTuple):
    """Per-PoP route columns, in ``RouteTable.site_codes`` indexes."""

    site: np.ndarray  # int16 hot-potato site, NO_ROUTE = unrouted
    alternate: np.ndarray  # int16 the AS's alternate, NO_ROUTE = none
    flipper: np.ndarray  # bool: routed and the AS is a flipper


@dataclass(frozen=True)
class Lattice:
    """Result of one :func:`propagate` call."""

    tables: List[RouteTable]  # one per policy, in input order
    levels: int  # level-synchronous near sweeps run across the phases


def weighted_pick(near: np.ndarray, hashes: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Vectorised ``RouteSelection._weighted_pick``: one site per row.

    Weights ``8 >> min(delta, 3)`` are laid out in (delta, site) order
    — one block of site columns per delta — and the site whose
    cumulative weight first exceeds ``hash % total`` wins.  Rows with no
    near site take ``fallback``.
    """
    absent = np.iinfo(near.dtype).max
    # Laid out (sites, rows), so every pass below is a vector op over
    # rows rather than a short scan per row.
    columns = np.ascontiguousarray(near.T)
    present = columns != absent
    sites = columns.shape[0]
    picked = np.array(fallback, dtype=np.int16)
    for site in range(sites):
        picked[present[site]] = site  # the sole near site, where there is one
    multi = np.flatnonzero(present.sum(axis=0) > 1)
    if multi.size:
        rows = columns[:, multi]
        deltas = np.arange(int(np.where(present[:, multi], rows, 0).max()) + 1, dtype=rows.dtype)
        weights = (8 >> np.minimum(deltas, 3)).astype(np.int32)
        cumulative = (
            (rows[None, :, :] == deltas[:, None, None]) * weights[:, None, None]
        ).reshape(-1, multi.size)
        for layer in range(1, len(cumulative)):
            cumulative[layer] += cumulative[layer - 1]
        draw = (hashes[multi] % cumulative[-1].astype(np.uint64)).astype(np.int32)
        picked[multi] = (cumulative <= draw).sum(axis=0) % sites
    return picked


def pop_routes(columns: AsColumns, tables: Sequence[RouteTable]) -> List[PopRoutes]:
    """Gather every table's per-PoP routes: one PoP->AS join per table and
    one weighted pick over all of their routed PoPs, stacked.

    A table with fewer sites (a withdrawal routed on its own) pads its
    near columns with the absent value.  A padded column weighs nothing,
    so it never changes a pick, and each pick stays an index into its
    own table's ``site_codes``.
    """
    as_of_pop = columns.pop_as
    routed = [table.route_class[as_of_pop] >= 0 for table in tables]
    routed_as = [as_of_pop[mask] for mask in routed]
    dtype = np.result_type(*(table.near.dtype for table in tables))
    absent = np.iinfo(dtype).max
    sizes = [rows.size for rows in routed_as]
    near = np.full((sum(sizes), max(table.near.shape[1] for table in tables)), absent, dtype=dtype)
    bounds = np.cumsum([0, *sizes])
    for table, rows, start, stop in zip(tables, routed_as, bounds, bounds[1:]):
        part = table.near[rows]
        if part.dtype != dtype:
            part = np.where(part == np.iinfo(part.dtype).max, absent, part)
        near[start:stop, : part.shape[1]] = part
    picked = weighted_pick(
        near,
        np.concatenate([columns.pop_hash[mask] for mask in routed]),
        np.concatenate([table.primary[rows] for table, rows in zip(tables, routed_as)]),
    )
    gathered = []
    for table, mask, start, stop in zip(tables, routed, bounds, bounds[1:]):
        site = np.full(as_of_pop.size, NO_ROUTE, dtype=np.int16)
        site[mask] = picked[start:stop]
        alternate = np.where(mask, table.alternate[as_of_pop], NO_ROUTE).astype(np.int16)
        gathered.append(PopRoutes(site, alternate, mask & columns.flipper[as_of_pop]))
    return gathered


def table_from_selections(
    columns: AsColumns, site_codes: Sequence[str], selections: Dict[int, object]
) -> RouteTable:
    """Route columns of a ``selections`` dict (delta outcomes, tests), one pass."""
    codes = tuple(sorted(site_codes))
    site_of = {code: i for i, code in enumerate(codes)}
    count = columns.asns.size
    route_class = np.full(count, NO_ROUTE, dtype=np.int8)
    path_length = np.zeros(count, dtype=np.int16)
    primary = np.full(count, NO_ROUTE, dtype=np.int16)
    pinned = np.zeros(count, dtype=bool)
    alternate = np.full(count, NO_ROUTE, dtype=np.int16)
    near = np.full((count, len(codes)), np.iinfo(np.int8).max, dtype=np.int8)
    for asn, selection in selections.items():
        i = columns.index[asn]
        route_class[i] = selection.route_class
        path_length[i] = selection.path_length
        primary[i] = site_of[selection.primary_site]
        pinned[i] = selection.pinned
        if selection.alternate_site is not None:
            alternate[i] = site_of[selection.alternate_site]
        for delta, site in selection.near_routes:
            near[i, site_of[site]] = delta
    return RouteTable(codes, route_class, path_length, primary, pinned, alternate, near)


# -- propagation ------------------------------------------------------------


def _relax(dist: np.ndarray, table: EdgeTable, free: Optional[np.ndarray] = None) -> None:
    """Min-plus relaxation of ``dist`` (configs x ASes) over ``table`` to
    a fixpoint, in place; ``free`` masks the ASes allowed to improve."""
    if not table.rows.size:
        return
    while True:
        offers = np.minimum.reduceat(dist[:, table.exporter] + table.cost, table.starts, axis=1)
        current = dist[:, table.rows]
        better = offers < current
        if free is not None:
            better &= free[:, table.rows]
        if not better.any():
            return
        dist[:, table.rows] = np.where(better, offers, current)


def _segment_min(values: np.ndarray, table: EdgeTable, shape: Tuple[int, int]) -> np.ndarray:
    """Per-importer minimum of per-edge ``values`` (configs x edges); _INF
    where an AS imports over no edge."""
    out = np.full(shape, _INF, dtype=np.int32)
    if table.rows.size:
        out[:, table.rows] = np.minimum.reduceat(values, table.starts, axis=1)
    return out


def _earlier(length: np.ndarray, table: EdgeTable) -> np.ndarray:
    """Edges whose exporter precedes its importer in ascending (length, ASN)."""
    exported = length[:, table.exporter]
    imported = length[:, table.importer]
    return (exported < imported) | (
        (exported == imported) & (table.exporter < table.importer)
    )


def _fill_near(
    near: np.ndarray,
    table: EdgeTable,
    count: int,
    near_edge: np.ndarray,
    delta: np.ndarray,
    in_phase: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Scatter one phase's edges into ``near``, level by level.

    ``near_edge`` marks the (config, edge) pairs within slack; the
    exporter's site pick is read only once its own near set is final,
    which ``in_phase`` (flat, the ASes this phase resolves) plus the
    level fixpoint guarantee.  Returns each pair's flat importer, edge,
    delta and the site its exporter picked for it, and the level count.
    """
    config, edge = np.nonzero(near_edge)
    src = config * count + table.exporter[edge]
    dst = config * count + table.importer[edge]
    deltas = delta[config, edge].astype(near.dtype)
    level = np.zeros(near.shape[0], dtype=np.int32)
    dependent = in_phase[src]
    dep_src, dep_dst = src[dependent], dst[dependent]
    if dep_src.size:
        # dst ascends (nonzero is row-major and CSR rows ascend), so each
        # importer's dependencies are one contiguous segment.
        heads = np.flatnonzero(np.r_[True, dep_dst[1:] != dep_dst[:-1]])
        targets = dep_dst[heads]
        while True:
            deeper = np.maximum.reduceat(level[dep_src] + 1, heads)
            if not (deeper > level[targets]).any():
                break
            level[targets] = np.maximum(level[targets], deeper)
    edge_level = level[dst]
    levels = int(edge_level.max()) + 1 if edge_level.size else 0
    order = np.argsort(edge_level, kind="stable")
    bounds = np.searchsorted(edge_level[order], np.arange(levels + 1))
    via = np.empty(edge.size, dtype=np.int16)
    for current in range(levels):
        chunk = order[bounds[current]:bounds[current + 1]]
        picked = weighted_pick(
            near[src[chunk]], table.pick_hash[edge[chunk]], np.full(chunk.size, NO_ROUTE)
        )
        via[chunk] = picked
        np.minimum.at(near, (dst[chunk], picked), deltas[chunk])
    return dst, edge, deltas, via, levels


def _first_min(groups: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Index of each group's least hash, the earliest on ties (the
    scalar ``min`` over candidates in order); ``groups`` ascend."""
    if not groups.size:
        return np.zeros(0, dtype=np.intp)
    heads = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    least = np.minimum.reduceat(hashes, heads)
    hits = np.flatnonzero(hashes == np.repeat(least, np.diff(np.r_[heads, groups.size])))
    return hits[np.r_[True, groups[hits][1:] != groups[hits][:-1]]]


def propagate(
    internet: "Internet", policies: Sequence["AnnouncementPolicy"], config: "RoutingConfig"
) -> Lattice:
    """Routes of every policy in ``policies`` over ``internet``, as columns."""
    columns = as_columns(internet)
    tables = edge_tables(internet, config)
    configs = len(policies)
    count = columns.asns.size
    flat = configs * count
    site_codes = tuple(sorted({code for policy in policies for code in policy.site_codes}))
    site_of = {code: i for i, code in enumerate(site_codes)}
    sites = len(site_codes)
    site_hashes = np.array([site_hash(code) for code in site_codes], dtype=np.uint64)
    slack = config.pop_slack + 2 * columns.multi_pop.astype(np.int32)
    near_dtype = np.int8 if config.pop_slack + 2 < np.iinfo(np.int8).max else np.int16
    near = np.full((flat, sites), np.iinfo(near_dtype).max, dtype=near_dtype)

    # Origins: one entry per announcement, flat (config, upstream) keyed.
    origin_at, origin_site, origin_len = [], [], []
    policy_sites = np.full((configs, sites), NO_ROUTE, dtype=np.int16)
    site_position = np.zeros((configs, sites), dtype=np.int64)
    for c, policy in enumerate(policies):
        for position, announcement in enumerate(policy.announcements):
            upstream = columns.index.get(announcement.upstream_asn)
            if upstream is None:
                raise RoutingError(
                    f"upstream AS{announcement.upstream_asn} for site "
                    f"{announcement.site_code} does not exist in the topology"
                )
            origin_at.append(c * count + upstream)
            origin_site.append(site_of[announcement.site_code])
            origin_len.append(announcement.effective_length)
            policy_sites[c, position] = site_of[announcement.site_code]
            site_position[c, site_of[announcement.site_code]] = position
    origin_at = np.array(origin_at, dtype=np.intp)
    origin_site = np.array(origin_site, dtype=np.intp)
    origin_len = np.array(origin_len, dtype=np.int32)

    route_class = np.full(flat, NO_ROUTE, dtype=np.int8)
    path_length = np.zeros(flat, dtype=np.int32)
    pinned = np.zeros(flat, dtype=bool)
    primary = np.full(flat, NO_ROUTE, dtype=np.int16)
    as_of = np.tile(np.arange(count), configs)

    least_hash = np.full(flat, np.iinfo(np.uint64).max, dtype=np.uint64)

    def choose(groups, hashes, site) -> None:
        """Primary = the least tie hash among exact candidates."""
        winners = _first_min(groups, hashes)
        at = groups[winners]
        primary[at] = site[winners]
        least_hash[at] = hashes[winners]

    def choose_edges(table, dst, edge, deltas, via) -> None:
        """Choose among the exact (delta 0) candidates of a phase's near edges."""
        exact = deltas == 0
        edge = edge[exact]
        with np.errstate(over="ignore"):
            hashes = mix64_np(table.tie_prefix[edge] ^ site_hashes[via[exact]])
        choose(dst[exact], hashes, via[exact])

    # -- phase 1: customer routes up the provider DAG ---------------------
    up = tables.up
    dist = np.full(flat, _INF, dtype=np.int32)
    np.minimum.at(dist, origin_at, origin_len)
    dist = dist.reshape(configs, count)
    _relax(dist, up)
    customer = (dist < _INF).ravel()
    route_class[customer] = RouteClass.CUSTOMER
    path_length[customer] = dist.ravel()[customer]

    origin_delta = origin_len - dist.ravel()[origin_at]
    within = origin_delta <= slack[origin_at % count]
    np.minimum.at(
        near, (origin_at[within], origin_site[within]), origin_delta[within].astype(near_dtype)
    )
    arrival = dist[:, up.exporter] + up.cost
    delta = arrival - dist[:, up.importer]
    near_edge = (
        (dist[:, up.importer] < _INF)
        & (dist[:, up.exporter] < _INF)
        & _earlier(dist, up)
        & (delta <= slack[up.importer])
    )
    dst, edge, deltas, via, levels = _fill_near(near, up, count, near_edge, delta, customer)
    choose_edges(up, dst, edge, deltas, via)
    # Origin entries precede every customer in candidate order, so an
    # origin wins the ties it has with the edge winner.
    exact = np.flatnonzero(origin_delta == 0)
    exact = exact[np.argsort(origin_at[exact], kind="stable")]
    with np.errstate(over="ignore"):
        origin_hash = mix64_np(
            mix64_np(columns.asns[origin_at[exact] % count].astype(np.uint64) * np.uint64(0x9E37))
            ^ site_hashes[origin_site[exact]]
        )
    winners = _first_min(origin_at[exact], origin_hash)
    beats = origin_hash[winners] <= least_hash[origin_at[exact][winners]]
    winners = exact[winners[beats]]
    primary[origin_at[winners]] = origin_site[winners]

    # -- phase 2: ASes without customer routes import their peers' --------
    peer = tables.peer
    offered = (dist[:, peer.importer] >= _INF) & (dist[:, peer.exporter] < _INF)
    arrival = np.where(offered, dist[:, peer.exporter] + peer.cost, _INF)
    best = _segment_min(arrival, peer, (configs, count))
    delta = arrival - best[:, peer.importer]
    near_edge = offered & (delta <= slack[peer.importer])
    dst, edge, deltas, via, peer_levels = _fill_near(
        near, peer, count, near_edge, delta, np.zeros(flat, dtype=bool)
    )
    levels += peer_levels
    peered = (best < _INF).ravel()
    route_class[peered] = RouteClass.PEER
    path_length[peered] = best.ravel()[peered]
    choose_edges(peer, dst, edge, deltas, via)

    # -- phase 3: descent down the provider->customer DAG -----------------
    down = tables.down
    holder = route_class.reshape(configs, count) >= 0
    export = np.where(holder, path_length.reshape(configs, count), _INF).astype(np.int32)
    _relax(export, down, free=~holder)
    provider = ~holder & (export < _INF)
    exporter_holds = holder[:, down.exporter]
    contributes = provider[:, down.importer] & (
        exporter_holds | (provider[:, down.exporter] & _earlier(export, down))
    )
    has_pin = _segment_min(
        np.where(contributes & down.pinned, 0, 1).astype(np.int32), down, (configs, count)
    ) == 0
    eligible = contributes & (down.pinned | ~has_pin[:, down.importer])
    arrival = np.where(eligible, export[:, down.exporter] + down.cost, _INF)
    best = _segment_min(arrival, down, (configs, count))
    delta = arrival - best[:, down.importer]
    near_edge = eligible & (delta <= slack[down.importer])
    provided = provider.ravel()
    dst, edge, deltas, via, provider_levels = _fill_near(
        near, down, count, near_edge, delta, provided
    )
    levels += provider_levels
    route_class[provided] = RouteClass.PROVIDER
    path_length[provided] = best.ravel()[provided]
    pinned[provided] = has_pin.ravel()[provided]
    choose_edges(down, dst, edge, deltas, via)

    if path_length.max(initial=0) > np.iinfo(np.int16).max:
        raise RoutingError("path length overflows the int16 route column")
    alternate = _alternates(
        near, primary, route_class, columns.flipper[as_of], columns.flip_hash[as_of],
        policy_sites, site_position, count,
    )
    shaped = (configs, count)
    route_class = route_class.reshape(shaped)
    path_length = path_length.astype(np.int16).reshape(shaped)
    primary = primary.reshape(shaped)
    pinned = pinned.reshape(shaped)
    alternate = alternate.reshape(shaped)
    near = near.reshape(configs, count, sites)
    return Lattice(
        tables=[
            RouteTable(
                site_codes, route_class[c], path_length[c], primary[c], pinned[c],
                alternate[c], near[c],
            )
            for c in range(configs)
        ],
        levels=levels,
    )


def _alternates(
    near: np.ndarray,
    primary: np.ndarray,
    route_class: np.ndarray,
    flipper: np.ndarray,
    flip_hash: np.ndarray,
    policy_sites: np.ndarray,
    site_position: np.ndarray,
    count: int,
) -> np.ndarray:
    """Vectorised ``_alternate_for``: the first near site in (delta,
    site) order other than the primary; else, for flippers of a policy
    with two or more sites, a hashed pick among the others."""
    sites = near.shape[1]
    absent = np.iinfo(near.dtype).max
    never = np.iinfo(np.int64).max
    first = np.full(primary.size, never, dtype=np.int64)  # least delta * sites + site
    for site in range(sites):
        delta = near[:, site]
        key = delta.astype(np.int64) * sites + site
        first = np.where((delta != absent) & (primary != site), np.minimum(first, key), first)
    has = first < never
    alternate = np.where(has, first % sites, NO_ROUTE).astype(np.int16)
    config = np.arange(primary.size) // count
    announced = (policy_sites >= 0).sum(axis=1)[config]
    fallback = np.flatnonzero((route_class >= 0) & ~has & flipper & (announced > 1))
    if fallback.size:
        others = (announced[fallback] - 1).astype(np.uint64)
        pick = (flip_hash[fallback] % others).astype(np.int64)
        own = site_position[config[fallback], primary[fallback]]
        alternate[fallback] = policy_sites[config[fallback], pick + (pick >= own)]
    return alternate
