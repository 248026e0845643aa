"""The anycast service: a prefix announced from several sites."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.bgp.policy import AnnouncementPolicy
from repro.errors import ConfigurationError
from repro.anycast.site import AnycastSite
from repro.netaddr.prefix import Prefix


class AnycastService:
    """An anycast deployment: service prefix, sites, measurement address.

    The measurement address must live inside the service prefix so that
    Verfploeter's echo requests carry a source address whose replies are
    routed by the *anycast* prefix (paper §3.1).  By convention we use
    ``.1`` in the prefix, and the paper's test-prefix trick (announcing
    a parallel /24 out of the covering /23) is modelled by cloning the
    service with a different prefix.
    """

    def __init__(
        self,
        name: str,
        prefix: Prefix,
        sites: Iterable[AnycastSite],
        measurement_address: Optional[int] = None,
    ) -> None:
        self.name = name
        self.prefix = prefix
        self.sites: List[AnycastSite] = list(sites)
        if not self.sites:
            raise ConfigurationError(f"service {name!r} needs at least one site")
        codes = [site.code for site in self.sites]
        if len(set(codes)) != len(codes):
            raise ConfigurationError(f"service {name!r} has duplicate site codes")
        if measurement_address is None:
            measurement_address = prefix.network + 1
        if not prefix.contains_address(measurement_address):
            raise ConfigurationError(
                f"measurement address must be inside service prefix {prefix}"
            )
        self.measurement_address = measurement_address

    @property
    def site_codes(self) -> List[str]:
        """Site codes in declaration order."""
        return [site.code for site in self.sites]

    def site(self, code: str) -> AnycastSite:
        """Look up a site by code."""
        for site in self.sites:
            if site.code == code:
                return site
        raise ConfigurationError(f"service {self.name!r} has no site {code!r}")

    def upstreams(self) -> Dict[str, int]:
        """Mapping of site code to upstream ASN."""
        return {site.code: site.upstream_asn for site in self.sites}

    def default_policy(self) -> AnnouncementPolicy:
        """All sites announcing, no prepending."""
        return AnnouncementPolicy.uniform(self.upstreams())

    def policy(
        self,
        prepends: Optional[Mapping[str, int]] = None,
        withdrawn: Iterable[str] = (),
    ) -> AnnouncementPolicy:
        """A policy with per-site prepends and optional withdrawn sites."""
        return AnnouncementPolicy.uniform(self.upstreams(), prepends, withdrawn)

    def test_prefix_clone(self, test_prefix: Prefix) -> "AnycastService":
        """The paper's pre-deployment trick: announce a parallel test prefix.

        Returns a service identical in sites but numbered from
        ``test_prefix`` (e.g. the unused half of the covering /23).
        """
        return AnycastService(
            f"{self.name}-test", test_prefix, self.sites, test_prefix.network + 1
        )
