"""Prober parameters and the probe-order seed stream.

One measurement round sends a single Echo Request to every hitlist
entry, in pseudorandom order, at a configured rate, with the round's
unique identifier in the ICMP header.  The engine computes the order
and the send offsets as columns (:mod:`repro.core.fastscan`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.rng import derive_seed


def round_order_seed(parent_seed: int, round_id: int) -> int:
    """Seed of the probe-order permutation for one scan round.

    This is the *only* place the probe-order label is derived.  The
    label is namespaced under ``probing.order/`` so no other subsystem
    formatting its own ``{round_id}`` label can collide with it, and
    both the vectorized engine and the wire oracle's schedule call this
    helper so their permutations are bit-identical by construction.
    """
    return derive_seed(parent_seed, f"probing.order/round/{round_id}")


@dataclass(frozen=True)
class ProberConfig:
    """Prober parameters.

    ``rate_pps`` caps probe transmission (paper: ~6-10k/s to avoid rate
    limits and abuse complaints); ``source_address`` must be the
    anycast measurement address.
    """

    source_address: int
    rate_pps: float = 10_000.0
    payload: bytes = b"verfploeter"

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ConfigurationError("rate_pps must be positive")
        if not 0 <= self.source_address <= 0xFFFFFFFF:
            raise ConfigurationError("source_address out of 32-bit range")
