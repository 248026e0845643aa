"""Response collection: per-site capture, aggregation, cleaning.

The paper runs three collection systems (§3.1): a custom near-real-time
forwarder (Tangled), the LANDER continuous-capture system (B-Root), and
plain tcpdump.  All three are modelled here behind one interface; the
cleaning stage then removes duplicates, unsolicited replies, and late
replies exactly as §4 describes.
"""

from repro.lazy import lazy_exports

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

_EXPORTS = {
    "ReplyColumns": "repro.collector.stream",
    "StreamingCleaner": "repro.collector.stream",
    "SiteCapture": "repro.collector.capture",
    "StreamingCapture": "repro.collector.capture",
    "LanderCapture": "repro.collector.capture",
    "PcapLikeCapture": "repro.collector.capture",
    "CentralCollector": "repro.collector.aggregate",
    "CleaningConfig": "repro.collector.cleaning",
    "CleaningResult": "repro.collector.cleaning",
    "clean_replies": "repro.collector.cleaning",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
