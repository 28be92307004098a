"""Exception types raised across the package.

Two families, one per CLI exit code: UsageError (1) for a bad argument or
parameter, DataError (2) for input that cannot be processed. Both derive
from CycleTransferError, which is a ValueError, so callers that catch
ValueError keep working.
"""


class CycleTransferError(ValueError):
    """Base class for every error this package raises on purpose."""


class UsageError(CycleTransferError):
    """A bad argument or parameter value; the CLI exits with code 1."""


class DataError(CycleTransferError):
    """A series, table or file that cannot be processed; the CLI exits with code 2."""


class ConstantSeriesError(DataError):
    """Series range is (numerically) zero, so there is no cycle to analyze."""


class SeasonalityNotFoundError(DataError):
    """No periods found: the series never crosses its trend, or period
    validation retained too few starts to segment it."""
