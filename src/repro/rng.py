"""Deterministic randomness utilities.

All stochastic behaviour in the library flows from explicit integer seeds
so every experiment is reproducible bit-for-bit.  Components never share a
``random.Random`` instance; instead each derives an independent stream
from a parent seed and a string label, so adding a new consumer never
perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import random

_MASK64 = (1 << 64) - 1


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a stable 64-bit child seed from ``parent_seed`` and ``label``.

    Uses BLAKE2b so the mapping is stable across Python versions and
    platforms (unlike ``hash()``).
    """
    digest = hashlib.blake2b(
        label.encode("utf-8"),
        digest_size=8,
        key=parent_seed.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


def derive_rng(parent_seed: int, label: str) -> random.Random:
    """Return a fresh ``random.Random`` seeded from ``(parent_seed, label)``."""
    return random.Random(derive_seed(parent_seed, label))


def mix64(value: int) -> int:
    """Stateless 64-bit mixing function (one splitmix64 round).

    Maps any integer to a well-distributed 64-bit value; used for hashing
    (seed, block) pairs into uniform draws without materialising streams.
    """
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64_np(values):
    """Vectorised :func:`mix64` over a numpy uint64 array.

    Bit-for-bit identical to the scalar version (uint64 arithmetic
    wraps exactly like the masked Python ints), so vectorised engines
    reproduce scalar draws exactly.
    """
    import numpy as np

    z = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _absorb_np(h, components):
    """Fold ``components`` into hash state ``h`` (uniform_unit's chain)."""
    import numpy as np

    for component in components:
        if isinstance(component, int):
            mixed = np.uint64(mix64(component))
        else:
            mixed = mix64_np(np.asarray(component, dtype=np.uint64))
        h = mix64_np(h ^ mixed)
    return h


def hash_prefix_np(seed: int, *components):
    """Hash state of :func:`uniform_unit_np` after absorbing ``components``.

    Lets hot loops precompute the round-invariant part of a draw (seed,
    salt, block array) once and finish each round with
    :func:`uniform_from_prefix_np` — one array pass instead of three.
    """
    import numpy as np

    return _absorb_np(
        mix64_np(np.array(seed & _MASK64, dtype=np.uint64)), components
    )


def uniform_from_prefix_np(prefix, *components):
    """Finish a draw started by :func:`hash_prefix_np`.

    ``uniform_from_prefix_np(hash_prefix_np(seed, a, b), c)`` is
    bit-identical to ``uniform_unit_np(seed, a, b, c)``.
    """
    import numpy as np

    h = _absorb_np(prefix, components)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def uniform_unit_np(seed: int, *components):
    """Vectorised :func:`uniform_unit`.

    ``components`` are ints or equal-length integer arrays; scalars are
    broadcast.  Returns a float64 array in [0, 1) whose entries equal
    the scalar ``uniform_unit`` for the same component tuples.
    """
    return uniform_from_prefix_np(hash_prefix_np(seed), *components)


def uniform_unit(seed: int, *components: int) -> float:
    """Return a deterministic float in [0, 1) from a seed and components.

    The same inputs always produce the same value, which lets per-block
    behaviour (responsiveness, duplicate probability, churn) be computed
    on demand rather than stored.
    """
    h = mix64(seed)
    for component in components:
        h = mix64(h ^ mix64(component))
    return (h >> 11) / float(1 << 53)
