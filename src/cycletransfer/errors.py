"""Exception types raised across the package.

Two families, one per CLI exit code: UsageError (1) for a bad argument or
parameter, DataError (2) for input that cannot be processed. Both derive
from CycleTransferError, which is a ValueError, so callers that catch
ValueError keep working. One DataError, SeasonalityNotFoundError, is a
skip rather than a failure: a table reports its channel as
"skipped_no_seasonality".
"""


class CycleTransferError(ValueError):
    """Base class for every error this package raises on purpose."""


class UsageError(CycleTransferError):
    """A bad argument or parameter value; the CLI exits with code 1."""


class DataError(CycleTransferError):
    """A series, table or file that cannot be processed; the CLI exits with code 2."""


class SeasonalityNotFoundError(DataError):
    """No cycle to segment: the series is constant or a straight line, shows
    no significant cycle, or keeps too few period starts to segment it. It is
    the one error a channel is skipped for, as "skipped_no_seasonality"."""
