"""Transfer periodic motion patterns between time series.

A clean reference sequence and a noisy target sequence are each split
into cycle + trend + noise; the reference's averaged cycle shape is then
re-applied on top of the target's trend, period by period.
"""

from .config import SMOOTH_EXPONENTIAL, SMOOTH_MEAN, RunConfig
from .decomposition import (
    FALLING,
    RISING,
    Crossover,
    PeriodSegmentation,
    TrendModel,
    find_crossovers,
    fit_trend,
    validate_periods,
)
from .errors import (
    ChannelMismatchError,
    ConstantSeriesError,
    CsvParseError,
    CycleTransferError,
    DuplicateChannelError,
    FactorLengthMismatchError,
    InvalidAlphaError,
    InvalidFrequencyError,
    InvalidSeriesError,
    InvalidSpecError,
    LagTooLargeError,
    LengthMismatchError,
    NoCrossoversError,
    NonConsecutiveFramesError,
    PeriodTooShortError,
    RadiusTooLargeError,
    SeasonalityNotFoundError,
    SeriesTooShortError,
    SpectrumTooShortError,
)
from .seasonality import (
    SeasonalityReport,
    analyze_series,
    autocorrelation,
    dominant_frequency,
    power_spectrum,
    reference_period,
)
from .series import (
    ScaleParams,
    as_series,
    default_smooth_radius,
    denormalize,
    exponential_smoothing,
    mean_smoothing,
    normalize_minmax,
)
from .tableio import (
    PoseTable,
    SynthSpec,
    read_csv,
    synth_generate,
    write_csv,
    write_report,
)
from .transfer import (
    STATUS_PASSTHROUGH,
    STATUS_SKIPPED,
    STATUS_TRANSFERRED,
    AdditiveFactor,
    ChannelDiagnostics,
    IntervalMap,
    RefinedSeries,
    SequenceDiagnostics,
    analyze_table,
    apply_transfer,
    build_phi,
    compute_lmin,
    extract_additive,
    mean_additive_factor,
    transfer_channel,
    transfer_table,
)

__version__ = "0.1.0"
