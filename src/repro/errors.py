"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AddressError(ReproError, ValueError):
    """An IPv4 address or prefix was malformed or out of range."""


class PrefixLookupError(ReproError, KeyError):
    """A prefix/address lookup found no covering entry.

    Subclasses :class:`KeyError` so callers treating prefix sets as
    mappings keep working.
    """


class BlockLookupError(ReproError, KeyError):
    """A block key was absent from a columnar block mapping.

    Subclasses :class:`KeyError` so callers using the ``Mapping``
    protocol (``.get``, ``[]`` with ``try``/``except KeyError``) keep
    dict semantics.
    """


class TopologyError(ReproError):
    """The synthetic topology is inconsistent or a lookup failed."""


class RoutingError(ReproError):
    """BGP propagation failed or produced an inconsistent RIB."""


class MeasurementError(ReproError):
    """A probing run or collection step was misconfigured."""


class PacketError(ReproError, ValueError):
    """A packet could not be encoded or decoded."""


class DNSError(ReproError, ValueError):
    """A DNS message could not be encoded or decoded."""


class DatasetError(ReproError):
    """A dataset (scan or load trace) is missing, empty, or inconsistent."""


class ConfigurationError(ReproError, ValueError):
    """A scenario or component was configured with invalid parameters."""


class ServiceError(ReproError):
    """The always-on mapping service was misused or is in a bad state."""


class HttpError(ServiceError):
    """A request the JSON API must answer with a structured error body.

    Handlers raise this to short-circuit into a 4xx/5xx JSON response;
    ``JsonApp`` renders ``{"error": {"status", "code", "message"}}``.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message


class PoolError(ReproError):
    """A shard pool was used after shutdown or its workers died.

    Raised instead of the executor's own ``RuntimeError``/
    ``BrokenProcessPool`` so callers fanning work over a
    :class:`repro.core.pool.ShardPool` get a clean library error (never
    a hang) when the pool is shut down mid-use.
    """


class EquivalenceError(ReproError, AssertionError):
    """Two results that must match bit for bit do not.

    Raised by the sharding equivalence helpers; subclasses
    ``AssertionError`` so test harnesses report it as a failed
    assertion rather than an error.
    """


class ExportError(ReproError, AttributeError):
    """A package was asked for a name it does not export.

    Raised by the lazy re-export hook (:mod:`repro.lazy`); subclasses
    :class:`AttributeError` so ``hasattr`` and ``from package import
    submodule`` behave as for any module.
    """
