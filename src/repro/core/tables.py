"""Memory-mapped, content-addressed numpy tables.

A :class:`TableStore` is a directory of ``.npy`` files the pool's
worker processes attach as read-only ``np.memmap`` arrays instead of
unpickling them per task.  Every entry is keyed by *content*: the
fingerprint is a blake2b over dtype, shape, and raw bytes, so two runs
that build the same arrays share one on-disk copy, and a stale cache
entry is impossible by construction.

Writes are atomic (temp file + ``os.replace``) so a crashed run never
leaves a half-written table under a valid fingerprint; the manifest is
written last and its presence is what marks a fingerprint as complete.
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

    def write_array(self, fingerprint: str, name: str, array: np.ndarray) -> None:
        """Persist one named array atomically."""
        directory = self.dir_of(fingerprint)
        os.makedirs(directory, exist_ok=True)
        final = self._array_path(fingerprint, name)
        scratch = final + ".tmp"
        with open(scratch, "wb") as handle:
            np.save(handle, np.ascontiguousarray(array))
        os.replace(scratch, final)

    def read_array(self, fingerprint: str, name: str) -> np.ndarray:
        """Attach one named array as a read-only memmap."""
        path = self._array_path(fingerprint, name)
        if not os.path.exists(path):
            raise DatasetError(f"no table {name!r} under fingerprint {fingerprint}")
        return np.load(path, mmap_mode="r")

    def write_manifest(self, fingerprint: str, payload: Dict[str, object]) -> None:
        """Persist the manifest atomically (write this last)."""
        directory = self.dir_of(fingerprint)
        os.makedirs(directory, exist_ok=True)
        final = os.path.join(directory, _MANIFEST)
        scratch = final + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(scratch, final)

    def read_manifest(self, fingerprint: str) -> Dict[str, object]:
        """Load the manifest of one fingerprint."""
        path = os.path.join(self.dir_of(fingerprint), _MANIFEST)
        if not os.path.exists(path):
            raise DatasetError(f"no persisted tables under fingerprint {fingerprint}")
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)


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
