"""Memory-mapped, content-addressed numpy tables.

A :class:`TableStore` is a directory of ``.npy`` files the pool's
worker processes attach as read-only ``np.memmap`` arrays instead of
unpickling them per task.  Every pool entry is keyed by *content*: the
fingerprint is a blake2b over dtype, shape, and raw bytes, so two runs
that build the same arrays share one on-disk copy, and a stale cache
entry is impossible by construction.  The scenario Internet
(:func:`persist_internet`) and a playbook's measured catchments
(:func:`persist_catchments`) are keyed by their inputs and sources
instead, and carry a content fingerprint that every attach checks.

Writes are atomic (a temp file of the writer's own + ``os.replace``) so
a crashed run never leaves a half-written table under a valid
fingerprint, and two writers of one entry never collide; the manifest
is written last and its presence is what marks a fingerprint as complete.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, DatasetError

_ENV_ROOT = "REPRO_TABLE_CACHE"
_MANIFEST = "manifest.json"

#: blake2b digest size, matching :func:`repro.obs.run_metadata`'s
#: fingerprints.
_DIGEST_SIZE = 8


class TableStore:
    """A directory of fingerprint-keyed, memory-mappable numpy tables."""

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get(_ENV_ROOT) or os.path.join(
                tempfile.gettempdir(), "repro-tables"
            )
        self.root = root

    def dir_of(self, fingerprint: str) -> str:
        """Directory holding one fingerprint's tables."""
        return os.path.join(self.root, fingerprint)

    def has(self, fingerprint: str) -> bool:
        """True if a complete table set exists (manifest written last)."""
        return os.path.exists(os.path.join(self.dir_of(fingerprint), _MANIFEST))

    def _array_path(self, fingerprint: str, name: str) -> str:
        return os.path.join(self.dir_of(fingerprint), f"{name}.npy")

    def _replace(self, fingerprint: str, filename: str, write) -> None:
        """Write one file of an entry through a temp file of this writer's own:
        concurrent writers of one entry never share (or truncate) one."""
        directory = self.dir_of(fingerprint)
        os.makedirs(directory, exist_ok=True)
        handle, scratch = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                write(stream)
            os.replace(scratch, os.path.join(directory, filename))
        except BaseException:
            os.unlink(scratch)
            raise

    def write_array(self, fingerprint: str, name: str, array: np.ndarray) -> None:
        """Persist one named array atomically."""
        self._replace(
            fingerprint, f"{name}.npy",
            lambda stream: np.save(stream, np.ascontiguousarray(array)),
        )

    def read_array(self, fingerprint: str, name: str) -> np.ndarray:
        """Attach one named array as a read-only memmap."""
        path = self._array_path(fingerprint, name)
        try:
            return np.load(path, mmap_mode="r")
        except (OSError, ValueError) as error:  # missing, truncated or not .npy
            raise DatasetError(f"table {name!r} under {fingerprint}: {error}") from None

    def write_manifest(self, fingerprint: str, payload: Dict[str, object]) -> None:
        """Persist the manifest atomically (write this last)."""
        self._replace(
            fingerprint, _MANIFEST,
            lambda stream: stream.write(json.dumps(payload, sort_keys=True).encode()),
        )

    def read_manifest(self, fingerprint: str) -> Dict[str, object]:
        """Load the manifest of one fingerprint."""
        path = os.path.join(self.dir_of(fingerprint), _MANIFEST)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as error:  # missing, or not JSON
            raise DatasetError(f"no readable manifest under {fingerprint}: {error}") from None


def content_fingerprint(
    arrays: Mapping[str, np.ndarray],
    scalars: Optional[Mapping[str, object]] = None,
) -> str:
    """Content hash of named arrays (plus optional JSON-able scalars).

    Arrays are hashed as ``name | dtype | shape | raw bytes`` in sorted
    name order; the hash never copies a C-contiguous buffer.
    """
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    if scalars:
        digest.update(
            json.dumps(scalars, sort_keys=True, default=str).encode("utf-8")
        )
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(memoryview(array).cast("B"))
    return digest.hexdigest()


#: Recently-fingerprinted arrays, keyed by object id.  Each entry holds
#: the array itself, so a cached id cannot be recycled by the allocator
#: while its entry lives; FIFO eviction bounds the held references.
#: Safe because every array persisted through this module is treated as
#: immutable (most are literally read-only memmaps or engine state that
#: is never written after precompute).
_FINGERPRINT_MEMO: "OrderedDict[int, Tuple[np.ndarray, str]]" = OrderedDict()
_FINGERPRINT_MEMO_LIMIT = 16


def _memoised_fingerprint(array: np.ndarray) -> str:
    entry = _FINGERPRINT_MEMO.get(id(array))
    if entry is not None and entry[0] is array:
        return entry[1]
    fingerprint = content_fingerprint({"array": array})
    _FINGERPRINT_MEMO[id(array)] = (array, fingerprint)
    while len(_FINGERPRINT_MEMO) > _FINGERPRINT_MEMO_LIMIT:
        _FINGERPRINT_MEMO.popitem(last=False)
    return fingerprint


def ensure_array(store: TableStore, array: np.ndarray) -> str:
    """Persist one array content-addressed; returns its fingerprint.

    Idempotent: an array whose fingerprint already exists in ``store``
    is not rewritten.  Repeat calls with the *same array object* skip
    even the hash (weighting joins pass the same universe and traffic
    columns round after round).
    """
    fingerprint = _memoised_fingerprint(array)
    if not store.has(fingerprint):
        store.write_array(fingerprint, "array", array)
        store.write_manifest(
            fingerprint,
            {
                "kind": "array",
                "dtype": str(array.dtype),
                "shape": list(array.shape),
            },
        )
    return fingerprint


def attach_array(store: TableStore, fingerprint: str) -> np.ndarray:
    """Attach one content-addressed array as a read-only memmap."""
    manifest = store.read_manifest(fingerprint)
    if manifest.get("kind") != "array":
        raise DatasetError(
            f"fingerprint {fingerprint} holds {manifest.get('kind')!r}, "
            "not a single array"
        )
    return store.read_array(fingerprint, "array")


#: Per-row columns of a :class:`repro.core.fastscan.RoundState`, in the
#: order they are hashed and persisted (``site_rtt`` is 2-D; the salt
#: prefixes are stored as ``state.prefix.<salt>``).
_STATE_COLUMNS = (
    "blocks",
    "block_pops",
    "stable",
    "off_address",
    "duplicator",
    "participate_draw",
    "site_rtt",
    "access",
    "lat_ok",
)


def _round_state_arrays(state) -> Dict[str, np.ndarray]:
    arrays = {f"state.{name}": getattr(state, name) for name in _STATE_COLUMNS}
    for salt, prefix in state.prefixes.items():
        arrays[f"state.prefix.{int(salt)}"] = prefix
    return arrays


def _round_state_scalars(state) -> Dict[str, object]:
    return {
        "kind": "round_state",
        "salts": sorted(int(salt) for salt in state.prefixes),
        "jitter_scale": state.jitter_scale,
        "host_config": dataclasses.asdict(state.host_config),
        "late_cutoff": state.late_cutoff,
        "interval": state.interval,
        "order_parent_seed": state.order_parent_seed,
        "n_total": state.n_total,
    }


def persist_round_state(store: TableStore, state) -> str:
    """Persist a full-universe ``RoundState``; returns its fingerprint.

    This is what keeps shard-worker payloads independent of block count:
    the parent externalises the deployment's routing-invariant columns
    once, and every worker re-attaches them as read-only memmaps by
    fingerprint instead of unpickling hundreds of megabytes per task.
    Idempotent per content; shard slices are refused (workers slice
    after attaching, so only the full state is ever stored).
    """
    if state.row_start != 0 or state.rows != state.n_total:
        raise ConfigurationError(
            "only a full-universe RoundState can be persisted; "
            f"got rows [{state.row_start}, {state.row_start + state.rows}) "
            f"of {state.n_total}"
        )
    scalars = _round_state_scalars(state)
    arrays = _round_state_arrays(state)
    fingerprint = content_fingerprint(arrays, scalars)
    if store.has(fingerprint):
        return fingerprint
    for name, array in arrays.items():
        store.write_array(fingerprint, name, array)
    store.write_manifest(fingerprint, scalars)
    return fingerprint


def attach_round_state(store: TableStore, fingerprint: str):
    """Rebuild a persisted ``RoundState`` backed by read-only memmaps.

    Every array column is attached, not copied; scalars and the two
    model configs come back from the manifest.  Raises
    :class:`~repro.errors.DatasetError` when the fingerprint holds
    something other than a round state.
    """
    # Deferred import: fastscan imports this module for persistence.
    from repro.core.fastscan import RoundState
    from repro.topology.hosts import HostModelConfig

    manifest = store.read_manifest(fingerprint)
    if manifest.get("kind") != "round_state":
        raise DatasetError(
            f"fingerprint {fingerprint} holds {manifest.get('kind')!r}, "
            "not a round state"
        )
    columns = {
        name: store.read_array(fingerprint, f"state.{name}")
        for name in _STATE_COLUMNS
    }
    prefixes = {
        int(salt): store.read_array(fingerprint, f"state.prefix.{int(salt)}")
        for salt in manifest["salts"]
    }
    return RoundState(
        prefixes=prefixes,
        jitter_scale=float(manifest["jitter_scale"]),
        host_config=HostModelConfig(**manifest["host_config"]),
        late_cutoff=float(manifest["late_cutoff"]),
        interval=float(manifest["interval"]),
        order_parent_seed=int(manifest["order_parent_seed"]),
        n_total=int(manifest["n_total"]),
        row_start=0,
        **columns,
    )


#: The columns of a persisted :class:`~repro.topology.internet.Internet`, by
#: name: numeric ones to ``.npy`` files, text ones to the manifest.  Column by
#: column: per-row containers by the thousand would set off a full GC pass.
_INTERNET_COLUMNS = (
    "blocks", "asns", "pop_ids", "geo.blocks", "geo.latitudes", "geo.longitudes",
    "geo.country_index", "ases.asn", "ases.flipper", "pops.asn", "pops.latitude",
    "pops.longitude", "prefixes", "edges",
)
_INTERNET_TEXT = ("ases.tier", "ases.name", "ases.country_code", "pops.country_code",
                  "geo.countries")


def _persist(store: TableStore, key: str, arrays: Dict[str, np.ndarray],
             scalars: Dict[str, object]) -> None:
    """Write ``arrays``, then ``scalars`` and their ``content_fingerprint`` as the manifest."""
    for name, array in arrays.items():
        store.write_array(key, name, array)
    store.write_manifest(
        key, {**scalars, "content_fingerprint": content_fingerprint(arrays, scalars)}
    )


def _attach(store: TableStore, key: str, kind: str, names) -> Tuple[dict, dict]:
    """``(arrays, scalars)`` :func:`_persist` wrote under ``key``, arrays memmapped; raises
    ``DatasetError`` on an entry missing, of another kind, truncated or unverified."""
    manifest = store.read_manifest(key)
    if manifest.get("kind") != kind:
        raise DatasetError(f"entry {key} holds {manifest.get('kind')!r}, not {kind}")
    scalars = {name: value for name, value in manifest.items() if name != "content_fingerprint"}
    arrays = {name: np.asarray(store.read_array(key, name)) for name in names}
    if content_fingerprint(arrays, scalars) != manifest.get("content_fingerprint"):
        raise DatasetError(f"entry {key} does not match its content fingerprint")
    return arrays, scalars


def persist_internet(store: TableStore, key: str, internet, sources: str) -> None:
    """Persist ``internet`` under ``key``, overwriting what is there: numeric
    columns to ``.npy`` files; text columns, host configuration and the build's
    ``sources`` digest to the manifest, with a ``content_fingerprint`` of both
    that attach recomputes."""
    geo = internet.geodb.columnar()
    columns = {
        **dict(zip(("blocks", "asns", "pop_ids"), internet.block_table())),
        **{f"geo.{field.name}": getattr(geo, field.name) for field in dataclasses.fields(geo)},
        **{f"ases.{name}": column for name, column in internet.as_table._asdict().items()},
        **{f"pops.{name}": column for name, column in internet.pop_table._asdict().items()},
        "prefixes": internet.prefixes, "edges": internet.edges,
    }
    _persist(store, key, {name: columns[name] for name in _INTERNET_COLUMNS}, {
        "kind": "internet", "seed": internet.seed, "sources": sources,
        "host_config": dataclasses.asdict(internet.host_model.config),
        **{name: list(columns[name]) for name in _INTERNET_TEXT},
    })


def attach_internet(store: TableStore, key: str):
    """The Internet :func:`persist_internet` stored under ``key``, its columns
    read-only memmaps: no AS, PoP, prefix or edge object is built.  Raises
    :class:`~repro.errors.DatasetError` when the entry is missing, of another
    kind, truncated, misaligned or fails its fingerprint."""
    # Deferred: only a scenario snapshot needs the topology types.
    from repro.geo.geodb import GeoColumns, GeoDatabase
    from repro.topology.hosts import HostModelConfig
    from repro.topology.internet import AsTable, Internet, PopTable

    arrays, scalars = _attach(store, key, "internet", _INTERNET_COLUMNS)
    columns = {**arrays, **{name: scalars[name] for name in _INTERNET_TEXT}}
    ases, pops = ([columns[f"{table}.{name}"] for name in fields]
                  for table, fields in (("ases", AsTable._fields), ("pops", PopTable._fields)))
    blocks = tuple(arrays[name] for name in ("blocks", "asns", "pop_ids"))
    if (any(len({len(column) for column in table}) != 1 for table in (ases, pops))
            or {column.shape for column in blocks} != {blocks[0].shape}
            or {arrays[name].shape[0] for name in ("prefixes", "edges")} != {3}):
        raise DatasetError(f"entry {key} has misaligned columns")
    geo = GeoColumns(*(arrays[f"geo.{name}"] for name in
                       ("blocks", "latitudes", "longitudes", "country_index")),
                     tuple(scalars["geo.countries"]))
    return Internet(int(scalars["seed"]), ases, pops, arrays["prefixes"], arrays["edges"],
                    blocks, GeoDatabase(geo), HostModelConfig(**scalars["host_config"]))


def persist_catchments(store: TableStore, key: str, catchments: Mapping[str, object]) -> None:
    """Persist measured catchments under ``key``, overwriting what is there:
    one int16 (configs x universe) site matrix and the universe they share;
    each config's key (a policy digest) and site codes go to the manifest."""
    maps = list(catchments.values())
    _persist(store, key, {
        "universe": maps[0].universe,
        "sites": np.stack([catchment.site_index_array for catchment in maps]),
    }, {"kind": "catchments", "configs": list(catchments),
        "site_codes": [catchment.site_codes for catchment in maps]})


def attach_catchments(store: TableStore, key: str) -> Dict[str, object]:
    """The catchments :func:`persist_catchments` stored under ``key``, by config
    key, over one read-only universe; raises like :func:`attach_internet`."""
    from repro.anycast.catchment import CatchmentMap

    arrays, scalars = _attach(store, key, "catchments", ("universe", "sites"))
    return {config: CatchmentMap(codes, arrays["universe"], column, validate=False)
            for config, codes, column in zip(scalars["configs"], scalars["site_codes"],
                                             arrays["sites"])}
