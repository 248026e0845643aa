"""Response collection: per-site capture, aggregation, cleaning.

The paper runs three collection systems (§3.1): a custom near-real-time
forwarder (Tangled), the LANDER continuous-capture system (B-Root), and
plain tcpdump.  All three are modelled here behind one interface; the
cleaning stage then removes duplicates, unsolicited replies, and late
replies exactly as §4 describes.
"""

from repro.collector.aggregate import CentralCollector
from repro.collector.capture import (
    LanderCapture,
    PcapLikeCapture,
    SiteCapture,
    StreamingCapture,
)
from repro.collector.cleaning import CleaningConfig, CleaningResult, clean_replies
from repro.collector.stream import ReplyColumns, StreamingCleaner

__all__ = [
    "ReplyColumns",
    "StreamingCleaner",
    "SiteCapture",
    "StreamingCapture",
    "LanderCapture",
    "PcapLikeCapture",
    "CentralCollector",
    "CleaningConfig",
    "CleaningResult",
    "clean_replies",
]
