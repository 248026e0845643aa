"""Announcement policy: which sites announce, with how much prepending.

AS-path prepending (paper §6.1, Figure 5) artificially lengthens the
path of one site's announcement to shift its catchment to other sites.
An :class:`AnnouncementPolicy` captures one BGP configuration of the
anycast service: the set of announcing sites and per-site prepend
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SiteAnnouncement:
    """One site's announcement into its upstream AS.

    ``prepend`` of 0 means the plain announcement (path length 1 as seen
    at the upstream); each extra prepend adds one to the path length.

    ``no_export_to`` models NO_EXPORT-style BGP communities (the paper's
    §6.1 "more subtle methods of route control"): the upstream withholds
    this announcement from the listed neighbour ASes.  Those neighbours
    can still learn the route indirectly through other ASes — exactly
    the one-hop semantics of a targeted no-export community.  Honoured
    by the event-driven update simulator
    (:class:`repro.bgp.updates.BgpUpdateSimulator`).
    """

    site_code: str
    upstream_asn: int
    prepend: int = 0
    no_export_to: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.prepend < 0:
            raise ConfigurationError(f"negative prepend for {self.site_code}")

    @property
    def effective_length(self) -> int:
        """AS-path length as seen at the upstream AS."""
        return 1 + self.prepend


class AnnouncementPolicy:
    """A complete announcement configuration for an anycast service."""

    def __init__(self, announcements: Iterable[SiteAnnouncement]) -> None:
        self._announcements: List[SiteAnnouncement] = list(announcements)
        if not self._announcements:
            raise ConfigurationError("policy must announce at least one site")
        codes = [entry.site_code for entry in self._announcements]
        if len(set(codes)) != len(codes):
            raise ConfigurationError("duplicate site in announcement policy")

    @classmethod
    def uniform(
        cls,
        upstreams: Mapping[str, int],
        prepends: Optional[Mapping[str, int]] = None,
        withdrawn: Iterable[str] = (),
    ) -> "AnnouncementPolicy":
        """Build a policy from ``site -> upstream ASN`` with optional prepends.

        ``withdrawn`` sites are omitted entirely (site removal what-ifs).
        """
        prepends = dict(prepends or {})
        withdrawn_set = set(withdrawn)
        unknown = set(prepends) - set(upstreams)
        if unknown:
            raise ConfigurationError(f"prepends for unknown sites: {sorted(unknown)}")
        unknown = withdrawn_set - set(upstreams)
        if unknown:
            raise ConfigurationError(f"withdrawing unknown sites: {sorted(unknown)}")
        announcements = [
            SiteAnnouncement(code, asn, prepends.get(code, 0))
            for code, asn in sorted(upstreams.items())
            if code not in withdrawn_set
        ]
        return cls(announcements)

    @property
    def announcements(self) -> List[SiteAnnouncement]:
        """The per-site announcements in site-code order."""
        return list(self._announcements)

    @property
    def site_codes(self) -> List[str]:
        """Announcing site codes."""
        return [entry.site_code for entry in self._announcements]

    def with_prepend(self, site_code: str, prepend: int) -> "AnnouncementPolicy":
        """Return a copy with ``site_code``'s prepend replaced."""
        if site_code not in self.site_codes:
            raise ConfigurationError(f"site {site_code!r} is not announcing")
        return AnnouncementPolicy(
            replace(entry, prepend=prepend)
            if entry.site_code == site_code
            else entry
            for entry in self._announcements
        )

    def with_no_export(
        self, site_code: str, neighbor_asns: Iterable[int]
    ) -> "AnnouncementPolicy":
        """Return a copy where ``site_code``'s announcement carries a
        NO_EXPORT-style community toward ``neighbor_asns``."""
        if site_code not in self.site_codes:
            raise ConfigurationError(f"site {site_code!r} is not announcing")
        blocked = tuple(sorted(set(neighbor_asns)))
        return AnnouncementPolicy(
            replace(entry, no_export_to=blocked)
            if entry.site_code == site_code
            else entry
            for entry in self._announcements
        )
