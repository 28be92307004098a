"""Exception types raised across the package."""


class CycleTransferError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidSeriesError(CycleTransferError, ValueError):
    """Series is not 1-D, holds too few samples, or holds NaN or infinity.

    A ValueError too, so callers that validated series by catching
    ValueError keep working; the CLI reports it as a data error.
    """


class ConstantSeriesError(CycleTransferError):
    """Series range is (numerically) zero, so the operation is undefined."""


class RadiusTooLargeError(CycleTransferError):
    """Smoothing radius does not fit inside the series."""


class InvalidAlphaError(CycleTransferError):
    """Exponential smoothing weight must lie in (0, 1]."""


class LagTooLargeError(CycleTransferError):
    """Requested autocorrelation lag reaches past the series end."""


class SeriesTooShortError(CycleTransferError):
    """Series has too few samples for the requested operation."""


class SpectrumTooShortError(CycleTransferError):
    """Spectrum needs at least two bins beyond the DC bin."""


class InvalidFrequencyError(CycleTransferError):
    """Frequency index must lie in 1..floor(n/2)."""


class NoCrossoversError(CycleTransferError):
    """Detrended curve never changes sign, so no period boundaries exist."""


class SeasonalityNotFoundError(CycleTransferError):
    """Period validation retained too few starts to segment the series."""


class PeriodTooShortError(CycleTransferError):
    """A detected period is shorter than the interval count it must hold."""


class LengthMismatchError(CycleTransferError):
    """Paired arrays disagree in length."""


class FactorLengthMismatchError(CycleTransferError):
    """Mean factor length does not match the interval count."""


class CsvParseError(CycleTransferError):
    """Malformed CSV input; the message names the offending line."""


class NonConsecutiveFramesError(CycleTransferError):
    """Frame index column must count 0, 1, 2, ... without gaps."""


class DuplicateChannelError(CycleTransferError):
    """Channel names within one table must be unique."""


class ChannelMismatchError(CycleTransferError):
    """Reference and target tables must share the same channel names."""


class InvalidSpecError(CycleTransferError):
    """Synthetic generator parameters are out of range."""
