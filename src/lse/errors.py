"""Exception types shared across the toolkit."""


class LSEError(Exception):
    """Base class for all toolkit errors."""


class DataError(LSEError):
    """Malformed, inconsistent, or degenerate input data."""


class DegenerateStatisticError(LSEError):
    """A statistic is undefined for the given sample (e.g. zero variance)."""
