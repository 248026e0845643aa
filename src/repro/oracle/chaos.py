"""Atlas's CHAOS measurement on the wire (paper §2, §5.3).

Each anycast site runs a nameserver that reveals its identity through
the two standard mechanisms: a CHAOS-class TXT answer for
``hostname.bind`` (and ``id.server``), and the NSID EDNS option.  This
is what RIPE Atlas probes query to learn which site serves them.
:func:`wire_measure`, the oracle of :meth:`AtlasPlatform.measure`, walks
a measurement VP by VP through the wire format and these servers.
"""

from __future__ import annotations

from typing import List

from repro.anycast.service import AnycastService
from repro.atlas.platform import _DOWN_SALT, AtlasMeasurement, AtlasPlatform, AtlasResult
from repro.atlas.platform import site_hostname
from repro.bgp.propagation import RoutingOutcome
from repro.bgp.reference import site_of_block
from repro.oracle.dns import CLASS_CHAOS, TYPE_OPT, TYPE_TXT, DnsMessage, DnsRecord
from repro.rng import uniform_unit

_IDENTITY_NAMES = ("hostname.bind", "id.server")
_RCODE_REFUSED = 5


class SiteIdentityServer:
    """The DNS responder running at one anycast site."""

    def __init__(self, site_code: str, service_name: str) -> None:
        self.site_code = site_code
        self.service_name = service_name
        self.hostname = site_hostname(site_code, service_name)

    def handle(self, query: DnsMessage) -> DnsMessage:
        """Answer a query; site-identity questions get the site hostname.

        Anything that is not a CHAOS TXT identity query is REFUSED,
        which is how real root servers treat unexpected CHAOS queries.
        """
        response = DnsMessage(
            message_id=query.message_id,
            is_response=True,
            authoritative=True,
            questions=list(query.questions),
        )
        if any(record.rtype == TYPE_OPT for record in query.additionals):
            # An EDNS query gets the site's NSID [RFC 5001] back.
            response.additionals.append(DnsRecord.nsid_opt(self.hostname.encode("ascii")))
        if not query.questions:
            response.rcode = _RCODE_REFUSED
            return response
        question = query.questions[0]
        if (
            question.qclass == CLASS_CHAOS
            and question.qtype == TYPE_TXT
            and question.name.lower() in _IDENTITY_NAMES
        ):
            response.answers.append(
                DnsRecord.txt(question.name, self.hostname, CLASS_CHAOS)
            )
        else:
            response.rcode = _RCODE_REFUSED
        return response


def wire_measure(
    platform: AtlasPlatform,
    routing: RoutingOutcome,
    service: AnycastService,
    measurement_id: int = 0,
) -> AtlasMeasurement:
    """:meth:`AtlasPlatform.measure`, one VP and one DNS message at a time:
    each VP not down sends a CHAOS TXT query that BGP delivers to its
    catchment site's nameserver, whose TXT answer names the site."""
    servers = {site.code: SiteIdentityServer(site.code, service.name) for site in service.sites}
    hostname_to_site = {server.hostname: code for code, server in servers.items()}
    results: List[AtlasResult] = []
    for vp in platform.vps:
        down = (
            uniform_unit(platform.internet.seed, _DOWN_SALT, vp.vp_id, measurement_id)
            < platform.unavailable_fraction
        )
        site_code = None if down else site_of_block(routing, vp.block, measurement_id)
        hostname = None
        if site_code is not None:
            query = DnsMessage.query((vp.vp_id + measurement_id) & 0xFFFF, "hostname.bind")
            response = servers[site_code].handle(DnsMessage.decode(query.encode()))
            answer = DnsMessage.decode(response.encode())
            if answer.rcode == 0 and answer.answers:
                hostname = answer.answers[0].txt_strings()[0]
        results.append(AtlasResult(vp, hostname_to_site.get(hostname), hostname))
    return AtlasMeasurement(results, service.site_codes)
