"""Transfer periodic motion patterns between time series.

A clean reference sequence and a noisy target sequence are each split
into cycle + trend + noise; the reference's averaged cycle shape is then
re-applied on top of the target's trend, period by period.
"""

from .config import RunConfig
from .errors import (
    CycleTransferError,
    DataError,
    SeasonalityNotFoundError,
    UsageError,
)
from .tableio import PoseTable, SynthSpec, read_csv, synth_generate, write_csv, write_report
from .transfer import (
    STATUS_PASSTHROUGH,
    STATUS_SKIPPED,
    STATUS_TRANSFERRED,
    analyze_table,
    transfer_channel,
    transfer_table,
)

__version__ = "0.1.0"
