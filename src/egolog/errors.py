"""Exception types shared across the package."""

from __future__ import annotations


class EgologError(Exception):
    """Base class for all errors raised by this package.

    An error about an input file may name it and a line of it; the message
    then ends with " in <path>" and " at line <n>".
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" in {path}"
        if line is not None:
            where += f" at line {line}"
        super().__init__(message + where)


class CorpusError(EgologError):
    """A file cannot be read or written, or an input file holds an invalid record."""


class ConfigError(EgologError):
    """Pipeline configuration is missing, malformed, or inconsistent."""


class TransportError(EgologError):
    """A remote backend call failed in a retryable way (network, 5xx, timeout)."""


class BackendProtocolError(EgologError):
    """A backend returned a response that violates its wire contract."""


class ReplayMissError(EgologError):
    """The replay transcript store has no recording for a prompt/run pair."""


class ParseError(EgologError):
    """No usable structured block could be extracted from a model response."""


class RefineError(EgologError):
    """Interval refinement could not satisfy its contract (degenerate geometry)."""


class MetricsError(EgologError):
    """Predictions and ground truth cannot be aligned for evaluation."""
