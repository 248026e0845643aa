"""Behaviour of probed hosts, one host and one round at a time.

The per-(block, round) draws of the topology's
:class:`~repro.topology.hosts.HostModel` — churn, duplicate counts,
off-address replies, late replies, latency — as scalar functions, and
the responder that turns them into the packet world: given an Echo
Request to an address, produce the Echo Reply events (possibly none,
several duplicates, or replies from a different source address) with
their latencies.  The engine draws the same values as columns from the
same salts and the same seed, the Internet's (:mod:`repro.core.fastscan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bgp.reference import has_block
from repro.oracle.packets import EchoMessage
from repro.rng import uniform_unit
from repro.topology import hosts as _hosts
from repro.topology.hosts import HostModel
from repro.topology.internet import Internet


def country_of_block(internet: Internet, block: int) -> Optional[str]:
    """Country code of ``block`` from the geolocation DB (or None)."""
    record = internet.geodb.locate(block)
    return record.country_code if record is not None else None


def responds_in_round(
    hosts: HostModel, block: int, round_id: int, country_code: Optional[str] = None
) -> bool:
    """Whether ``block`` replies in measurement round ``round_id``.

    A stable responder goes temporarily silent with the churn
    probability, independently per round — this produces the paper's
    to-NR / from-NR bands in Figure 9.
    """
    if not hosts.is_stable_responder(block, country_code):
        return False
    churn_draw = uniform_unit(hosts.seed, _hosts._CHURN_SALT, block, round_id)
    return churn_draw >= hosts.config.churn_probability


def reply_count(hosts: HostModel, block: int, round_id: int) -> int:
    """Number of replies sent to a single echo request (>= 1).

    ~2% of responders duplicate; duplicate counts are heavy-tailed
    (the paper observed up to thousands; we cap for tractability).
    """
    config = hosts.config
    if uniform_unit(hosts.seed, _hosts._DUP_SALT, block) >= config.duplicate_fraction:
        return 1
    # Most duplicating hosts send one extra reply; a small heavy
    # tail sends many (the paper saw up to thousands; we cap).
    tail = uniform_unit(hosts.seed, _hosts._DUPN_SALT, block, round_id)
    if tail >= config.heavy_duplicate_fraction:
        return 2
    heaviness = tail / config.heavy_duplicate_fraction
    return 3 + int((config.max_duplicates - 3) * heaviness)


def replies_from_other_address(hosts: HostModel, block: int) -> bool:
    """True when the responder replies from an address we never probed."""
    draw = uniform_unit(hosts.seed, _hosts._OFFADDR_SALT, block)
    return draw < hosts.config.off_address_fraction


def is_late_replier(hosts: HostModel, block: int, round_id: int) -> bool:
    """True when the reply arrives after the collection cut-off."""
    draw = uniform_unit(hosts.seed, _hosts._LATE_SALT, block, round_id)
    return draw < hosts.config.late_fraction


def reply_latency_ms(hosts: HostModel, block: int, round_id: int) -> float:
    """Reply latency in milliseconds.

    Normal replies fall in tens to a few hundred ms; late repliers
    (stale NAT bindings, queued boxes) exceed the cleaning cut-off.
    """
    draw = uniform_unit(hosts.seed, _hosts._LATENCY_SALT, block, round_id)
    if is_late_replier(hosts, block, round_id):
        return hosts.config.late_threshold_ms * (1.0 + 4.0 * draw)
    return 10.0 + 390.0 * draw


@dataclass(frozen=True)
class ReplyEvent:
    """One reply emitted by a probed host."""

    source_address: int
    delay_ms: float
    message: EchoMessage

    @property
    def source_block(self) -> int:
        """/24 block the reply comes from."""
        return self.source_address >> 8


class HostResponder:
    """Simulates all probed hosts of the Internet."""

    def __init__(self, internet: Internet) -> None:
        self._internet = internet
        self._hosts = internet.host_model

    def respond(
        self, destination: int, message: EchoMessage, round_id: int
    ) -> List[ReplyEvent]:
        """Replies triggered by ``message`` sent to ``destination``.

        Empty when the target block is unpopulated or silent this round.
        Some hosts reply from a *different* address in their block
        (multi-homed boxes, NAT middleboxes); the paper's cleaning stage
        drops those replies because the source was never probed.
        """
        if not message.is_request:
            return []
        block = destination >> 8
        if not has_block(self._internet, block):
            return []
        hosts = self._hosts
        country = country_of_block(self._internet, block)
        if not responds_in_round(hosts, block, round_id, country):
            return []
        source = destination
        if replies_from_other_address(hosts, block):
            # Reply from the neighbouring host address in the same /24,
            # never equal to the probed address.
            source = (block << 8) | (((destination & 0xFF) + 1) % 256)
        count = reply_count(hosts, block, round_id)
        base_delay = reply_latency_ms(hosts, block, round_id)
        reply = message.reply()
        return [
            ReplyEvent(source, base_delay + 0.1 * extra, reply)
            for extra in range(count)
        ]
