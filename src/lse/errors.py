"""Exception types shared across the toolkit."""


class LSEError(Exception):
    """Base class for all toolkit errors."""


class DataError(LSEError):
    """Malformed, inconsistent, or degenerate input data."""

