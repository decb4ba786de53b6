"""Exception types shared across the package."""


class StarlogError(Exception):
    """Base class for all starlog errors."""


class ZeroConstantTerm(StarlogError):
    """Division by a series whose constant term vanishes."""


class NotUnitConstantTerm(StarlogError):
    """log of a series whose constant term is not 1."""


class NonzeroConstantTerm(StarlogError):
    """exp / integration of a series whose constant term is not 0."""


class DomainError(StarlogError):
    """Polylogarithm argument or order outside the supported range."""


class InvalidParams(StarlogError):
    """Class parameters (j, k, A, B) violate the defining constraints."""


class InvalidSeed(StarlogError):
    """Schwarz seed fails its certification condition."""


class TruncationTooSmall(StarlogError):
    """Requested truncation order cannot hold a single log coefficient."""


class WeightOutOfRange(StarlogError):
    """Weight exponent t > 2: the telescoping weight factors turn negative."""


class BExcluded(StarlogError):
    """B = -1 is excluded by the hypothesis of the n^2-weighted bound."""


class DivergentSeries(StarlogError):
    """The weighted bound series diverges for the requested (B, t)."""


class HypothesisViolated(StarlogError):
    """Partial-sum dominance hypothesis fails in the weight-transfer check."""


class ConfigError(StarlogError):
    """Malformed configuration: a CLI flag or config file, or a search setting."""
