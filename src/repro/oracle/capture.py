"""Per-site reply capture: the paper's three collection systems (§3.1).

A custom near-real-time forwarder (Tangled), the LANDER
continuous-capture system (B-Root), and plain tcpdump, behind one
interface.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, TextIO

from repro.errors import DatasetError, MeasurementError
from repro.netaddr.address import format_ipv4, parse_ipv4
from repro.oracle.network import DeliveredReply


class SiteCapture(abc.ABC):
    """Capture running at one anycast site.

    Subclasses differ in *how* records reach the central site, matching
    the paper's three deployments; all must preserve every record.
    """

    def __init__(self, site_code: str) -> None:
        self.site_code = site_code

    @abc.abstractmethod
    def record(self, reply: DeliveredReply) -> None:
        """Capture one reply arriving at this site."""

    @abc.abstractmethod
    def drain(self) -> List[DeliveredReply]:
        """Return (and clear) everything captured so far."""


class StreamingCapture(SiteCapture):
    """Custom near-real-time forwarder (used at Tangled).

    Forwards each record to a central sink as it arrives, tagging it
    with the capture site.
    """

    def __init__(
        self, site_code: str, sink: Optional[Callable[[DeliveredReply], None]] = None
    ) -> None:
        super().__init__(site_code)
        self._sink = sink
        self._buffer: List[DeliveredReply] = []

    def record(self, reply: DeliveredReply) -> None:
        """Forward one reply to the sink (or buffer it when sinkless)."""
        if reply.site_code != self.site_code:
            raise MeasurementError(
                f"capture at {self.site_code} received a reply for {reply.site_code}"
            )
        if self._sink is not None:
            self._sink(reply)
        else:
            self._buffer.append(reply)

    def drain(self) -> List[DeliveredReply]:
        """Hand over everything buffered since the last drain."""
        drained, self._buffer = self._buffer, []
        return drained


class LanderCapture(SiteCapture):
    """LANDER-style continuous capture (used at B-Root).

    Buffers records into fixed-length time bins, as a continuously
    running capture infrastructure would, and hands over whole bins.
    """

    def __init__(self, site_code: str, bin_seconds: float = 60.0) -> None:
        super().__init__(site_code)
        if bin_seconds <= 0:
            raise MeasurementError("bin_seconds must be positive")
        self._bin_seconds = bin_seconds
        self._bins: dict = {}

    def record(self, reply: DeliveredReply) -> None:
        """File one reply into its fixed-length time bin."""
        if reply.site_code != self.site_code:
            raise MeasurementError(
                f"capture at {self.site_code} received a reply for {reply.site_code}"
            )
        bin_index = int(reply.timestamp // self._bin_seconds)
        self._bins.setdefault(bin_index, []).append(reply)

    def drain(self) -> List[DeliveredReply]:
        """Hand over all bins, in time order, and reset them."""
        records = [
            reply
            for bin_index in sorted(self._bins)
            for reply in self._bins[bin_index]
        ]
        self._bins.clear()
        return records


class PcapLikeCapture(SiteCapture):
    """tcpdump-style capture to a text stream, parsed back on drain.

    Round-trips records through a serialisation format so a separate
    transfer step (the paper copies data manually) is exercised.
    """

    def __init__(self, site_code: str, stream: TextIO) -> None:
        super().__init__(site_code)
        self._stream = stream

    def record(self, reply: DeliveredReply) -> None:
        """Serialise one reply onto the text stream."""
        if reply.site_code != self.site_code:
            raise MeasurementError(
                f"capture at {self.site_code} received a reply for {reply.site_code}"
            )
        self._stream.write(
            f"{reply.timestamp:.6f}\t{format_ipv4(reply.source_address)}\t"
            f"{reply.identifier}\t{reply.sequence}\n"
        )

    def drain(self) -> List[DeliveredReply]:
        """Parse the whole stream back into reply records."""
        self._stream.seek(0)
        records: List[DeliveredReply] = []
        for line_number, line in enumerate(self._stream, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise DatasetError(
                    f"{self.site_code} capture line {line_number}: "
                    f"expected 4 fields, got {len(fields)}"
                )
            timestamp_text, address_text, identifier_text, sequence_text = fields
            records.append(
                DeliveredReply(
                    site_code=self.site_code,
                    source_address=parse_ipv4(address_text),
                    identifier=int(identifier_text),
                    sequence=int(sequence_text),
                    timestamp=float(timestamp_text),
                )
            )
        self._stream.seek(0)
        self._stream.truncate()
        return records
